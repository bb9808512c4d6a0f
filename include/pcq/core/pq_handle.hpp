// The uniform handle concept every pcq priority queue exposes — the one
// API surface `benchlib/pq_bench_driver.hpp`, `tests/pq_test_harness.hpp`,
// and `exec/executor.hpp` (which runs `graph/parallel_sssp.hpp`) are
// written against. A queue models the concept iff:
//
//   using entry = std::pair<Key, Value>;           // Queue::entry
//   auto h = queue.get_handle(thread_id);          // one handle per thread
//   h.push(key, value);                            // insert
//   h.push_batch(items, n);                        // n inserts, amortized
//   bool ok = h.try_pop(key, value);               // relaxed deleteMin
//   std::size_t got = h.try_pop_batch(out, max_n); // up to max_n deleteMins
//   queue.size();                                  // approx live count,
//                                                  // exact when quiescent
//
// Handle contract:
//
//   - Move-only. Handles may own elements (the k-LSM's local component)
//     and resources (the skiplist queues' epoch-reclamation records), so
//     copying is deleted; moving transfers ownership and leaves the
//     source dead.
//   - Flush-on-destruction. Any element a handle owns but never delivered
//     to its caller returns to the queue when the handle dies — elements
//     never die with a thread, and a fresh handle can always drain the
//     queue completely.
//   - One handle per thread. Handles are not thread-safe; the queue is
//     safe under any number of concurrently operating handles.
//
// Batch semantics:
//
//   - push_batch(items, n) is semantically n pushes; implementations
//     amortize per-element synchronization (one lock / one epoch pin /
//     one LSM block per batch instead of per element).
//   - try_pop_batch(out, max_n) returns up to max_n elements, each chunk
//     ascending under the queue's comparator. 0 means the queue looked
//     empty (relaxed — like try_pop, a concurrent push may race the
//     verdict). On strict queues each element is still an exact
//     deleteMin at its claim instant; on relaxed queues the chunk's
//     relaxation matches the scalar op's.
//
// Emptiness is relaxed everywhere: a false try_pop means "looked empty
// during the attempt", not "was empty at a linearization point". Callers
// that need a termination guarantee combine it with in-flight accounting
// (util/in_flight.hpp, whose drain loop the executor runs) or
// quiesce first.
//
// Why there is no `try_pop_any` escape hatch ("pop from anywhere,
// ignoring priority — just prove non-emptiness"): every consumer that
// looked like it needed one turns out to be covered by the two
// guarantees above. The executor (exec/executor.hpp), and so every
// workload it runs, parallel_sssp included, terminates on failed pop +
// drained in-flight counter, so a false negative costs one backoff
// round, never liveness; drains terminate because flush-on-destruction
// plus relaxed emptiness make a fresh handle able to empty any
// quiescent queue completely. A try_pop_any would also be
// unimplementable honestly on the strict queues (it IS try_pop there)
// while licensing relaxed callers to bypass the ordered path — the
// whole quantity this repo measures. Absent a consumer whose liveness
// needs it, the concept stays at six operations.
//
// Timed extension (optional, modeled by all five in-tree queues):
// `push_timed` / `try_pop_timed` draw a global timestamp at (or near)
// the operation's linearization point for offline rank replay — see
// core/rank_recorder.hpp. Detected separately by `has_timed_api`.
// Replay-matching contract: an insert's ticket must order BEFORE the
// ticket of any remove that returns the element. Queues whose ticket
// draw cannot share the insert's critical section draw it before the
// insert linearizes (the consumer draws after its claim, so the shared
// clock orders them); drawing after the insert loses that race and the
// timestamp-merged replay reports unmatched removes.
//
// std::numeric_limits<Key>::max() is reserved repo-wide as the empty-top
// sentinel; never insert it.
//
// C++17 has no `concept`, so conformance is enforced with the detection
// idiom: `is_pq<Queue>` for SFINAE contexts, and
// `PCQ_ASSERT_PQ_CONCEPT(Queue)` for the granular static_asserts the
// per-queue conformance suite instantiates.

#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

namespace pcq {

namespace concept_detail {

template <typename...>
using void_t = void;

template <typename Queue>
using handle_t =
    decltype(std::declval<Queue&>().get_handle(std::size_t{}));

template <typename Queue, typename = void>
struct has_entry : std::false_type {};
template <typename Queue>
struct has_entry<Queue, void_t<typename Queue::entry>>
    : std::is_same<typename Queue::entry,
                   std::pair<typename Queue::entry::first_type,
                             typename Queue::entry::second_type>> {};

template <typename Queue, typename = void>
struct has_get_handle : std::false_type {};
template <typename Queue>
struct has_get_handle<Queue, void_t<handle_t<Queue>>> : std::true_type {};

// The per-method detectors assume has_entry and has_get_handle hold;
// pq_concept below only instantiates them in that order.
template <typename Queue>
using key_t = typename Queue::entry::first_type;
template <typename Queue>
using value_t = typename Queue::entry::second_type;

template <typename Queue, typename = void>
struct has_push : std::false_type {};
template <typename Queue>
struct has_push<Queue,
                void_t<decltype(std::declval<handle_t<Queue>&>().push(
                    std::declval<const key_t<Queue>&>(),
                    std::declval<const value_t<Queue>&>()))>>
    : std::true_type {};

template <typename Queue, typename = void>
struct has_push_batch : std::false_type {};
template <typename Queue>
struct has_push_batch<
    Queue, void_t<decltype(std::declval<handle_t<Queue>&>().push_batch(
               std::declval<const typename Queue::entry*>(),
               std::size_t{}))>> : std::true_type {};

template <typename Queue, typename = void>
struct has_try_pop : std::false_type {};
template <typename Queue>
struct has_try_pop<
    Queue, void_t<decltype(std::declval<handle_t<Queue>&>().try_pop(
               std::declval<key_t<Queue>&>(),
               std::declval<value_t<Queue>&>()))>>
    : std::is_same<decltype(std::declval<handle_t<Queue>&>().try_pop(
                       std::declval<key_t<Queue>&>(),
                       std::declval<value_t<Queue>&>())),
                   bool> {};

template <typename Queue, typename = void>
struct has_try_pop_batch : std::false_type {};
template <typename Queue>
struct has_try_pop_batch<
    Queue, void_t<decltype(std::declval<handle_t<Queue>&>().try_pop_batch(
               std::declval<typename Queue::entry*>(), std::size_t{}))>>
    : std::is_convertible<
          decltype(std::declval<handle_t<Queue>&>().try_pop_batch(
              std::declval<typename Queue::entry*>(), std::size_t{})),
          std::size_t> {};

template <typename Queue, typename = void>
struct has_size : std::false_type {};
template <typename Queue>
struct has_size<Queue,
                void_t<decltype(std::declval<const Queue&>().size())>>
    : std::is_convertible<decltype(std::declval<const Queue&>().size()),
                          std::size_t> {};

template <typename Queue, typename = void>
struct has_timed : std::false_type {};
template <typename Queue>
struct has_timed<
    Queue,
    void_t<decltype(std::declval<handle_t<Queue>&>().push_timed(
               std::declval<const key_t<Queue>&>(),
               std::declval<const value_t<Queue>&>())),
           decltype(std::declval<handle_t<Queue>&>().try_pop_timed(
               std::declval<key_t<Queue>&>(),
               std::declval<value_t<Queue>&>(),
               std::declval<std::uint64_t&>()))>> : std::true_type {};

}  // namespace concept_detail

/// Alias for the handle type `Queue::get_handle(std::size_t)` returns.
template <typename Queue>
using pq_handle_t = concept_detail::handle_t<Queue>;

/// True iff Queue models the full pq handle concept (see header comment).
template <typename Queue, typename = void>
struct is_pq : std::false_type {};
template <typename Queue>
struct is_pq<
    Queue,
    typename std::enable_if<concept_detail::has_entry<Queue>::value &&
                            concept_detail::has_get_handle<Queue>::value>::type>
    : std::integral_constant<
          bool, concept_detail::has_push<Queue>::value &&
                    concept_detail::has_push_batch<Queue>::value &&
                    concept_detail::has_try_pop<Queue>::value &&
                    concept_detail::has_try_pop_batch<Queue>::value &&
                    concept_detail::has_size<Queue>::value &&
                    std::is_move_constructible<
                        concept_detail::handle_t<Queue>>::value &&
                    !std::is_copy_constructible<
                        concept_detail::handle_t<Queue>>::value &&
                    !std::is_copy_assignable<
                        concept_detail::handle_t<Queue>>::value> {};

/// True iff Queue additionally models the timed extension (push_timed /
/// try_pop_timed linearization tickets for rank replay).
template <typename Queue, typename = void>
struct has_timed_api : std::false_type {};
template <typename Queue>
struct has_timed_api<
    Queue,
    typename std::enable_if<concept_detail::has_get_handle<Queue>::value>::type>
    : concept_detail::has_timed<Queue> {};

}  // namespace pcq

/// Granular conformance asserts: one message per missing requirement,
/// instantiated by the shared test harness for every queue type.
#define PCQ_ASSERT_PQ_CONCEPT(Queue)                                        \
  static_assert(pcq::concept_detail::has_entry<Queue>::value,               \
                "pq concept: Queue::entry must be std::pair<Key, Value>");  \
  static_assert(pcq::concept_detail::has_get_handle<Queue>::value,          \
                "pq concept: queue.get_handle(std::size_t) missing");       \
  static_assert(pcq::concept_detail::has_push<Queue>::value,                \
                "pq concept: handle.push(const Key&, const Value&) "        \
                "missing");                                                 \
  static_assert(pcq::concept_detail::has_push_batch<Queue>::value,          \
                "pq concept: handle.push_batch(const entry*, std::size_t) " \
                "missing");                                                 \
  static_assert(pcq::concept_detail::has_try_pop<Queue>::value,             \
                "pq concept: bool handle.try_pop(Key&, Value&) missing");   \
  static_assert(pcq::concept_detail::has_try_pop_batch<Queue>::value,       \
                "pq concept: std::size_t handle.try_pop_batch(entry*, "     \
                "std::size_t) missing");                                    \
  static_assert(pcq::concept_detail::has_size<Queue>::value,                \
                "pq concept: queue.size() missing");                        \
  static_assert(                                                            \
      std::is_move_constructible<pcq::pq_handle_t<Queue>>::value,           \
      "pq concept: handles must be move-constructible");                    \
  static_assert(                                                            \
      !std::is_copy_constructible<pcq::pq_handle_t<Queue>>::value &&        \
          !std::is_copy_assignable<pcq::pq_handle_t<Queue>>::value,         \
      "pq concept: handles own elements/resources and must not be "         \
      "copyable");                                                          \
  static_assert(pcq::is_pq<Queue>::value,                                   \
                "pq concept: is_pq<Queue> must hold")

// The sequential priority-queue *substrate* concept — the inner data
// structure behind each MultiQueue slot. The paper treats this structure
// as a black box ("each queue is a sequential priority queue"); pcq
// makes it a real template knob: `multi_queue<Key, Value, Compare, Heap>`
// accepts any substrate selector whose rebound type models the concept
// below.
//
// A substrate S = heap_substrate_t<Selector, Key, Value, Compare>
// models the concept iff:
//
//   using entry = std::pair<Key, Value>;   // S::entry
//   bool        s.empty();                 // O(1)
//   std::size_t s.size();                  // O(1)
//   void        s.reserve(n);             // capacity hint (may be a no-op)
//   const Key&  s.top_key();              // least key under Compare
//   const entry& s.top();                 // least entry under Compare
//   void        s.push(key, value);       // insert
//   entry       s.pop();                  // remove + return least entry
//
// top/top_key/pop require a non-empty substrate; "least" means smallest
// under Compare (std::less => min-heap, deleteMin semantics).
// Substrates are move-constructible (slots live in arrays, handles in
// vectors) and need not be thread-safe: the enclosing queue serializes
// access per slot (the slot spinlock in multi_queue).
//
// Selector idiom: the template parameter the queues take is not the
// substrate itself but a *selector* — a small tag struct carrying a
// nested alias template
//
//   struct my_heap {
//     template <class K, class V, class C> using substrate = ...;
//   };
//
// so arity-style compile-time knobs spell naturally at the use site
// (`multi_queue<K, V, C, dary_heap<8>>`) without template-template
// parameters. `heap_substrate_t` performs the rebind.
//
// In-tree substrates (each header defines the concrete `*_t` type and
// its selector):
//
//   heap/binary_heap.hpp   binary_heap         bottom-up sift-down
//                                              (dijkstra's heap)
//   heap/dary_heap.hpp     dary_heap<Arity=4>  cache-aware flat d-ary
//                                              (coarse_pq's heap)
//   heap/buffered_heap.hpp buffered_heap<B=16> deletion + insertion
//                                              buffers over sorted runs
//                                              (multi_queue default)
//
// All three keep their entries in flat arrays. Under the hold model
// (bench_micro_substrates) the two heaps sit within run-to-run noise of
// each other at depths 2^8..2^20, buffered_heap<16> runs 1.4-1.7x their
// pairs per second up to 2^16 and 3.3-4.3x at 2^20, and pointer-based
// substrates (a pairing heap, a sequential skiplist) cost 1.6-10x as
// much per pair as the heaps at every depth.
//
// Like core/pq_handle.hpp, C++17 forces the detection idiom:
// `is_heap_substrate<S>` for SFINAE, `PCQ_ASSERT_HEAP_CONCEPT(S)` for
// granular per-requirement static_asserts.

#pragma once

#include <cstddef>
#include <type_traits>
#include <utility>

namespace pcq {

/// Rebind a substrate selector to a concrete substrate type.
template <typename Selector, typename Key, typename Value, typename Compare>
using heap_substrate_t =
    typename Selector::template substrate<Key, Value, Compare>;

namespace heap_concept_detail {

template <typename...>
using void_t = void;

template <typename S, typename = void>
struct has_entry : std::false_type {};
template <typename S>
struct has_entry<S, void_t<typename S::entry>>
    : std::is_same<typename S::entry,
                   std::pair<typename S::entry::first_type,
                             typename S::entry::second_type>> {};

template <typename S>
using key_t = typename S::entry::first_type;
template <typename S>
using value_t = typename S::entry::second_type;

template <typename S, typename = void>
struct has_empty : std::false_type {};
template <typename S>
struct has_empty<S, void_t<decltype(std::declval<const S&>().empty())>>
    : std::is_same<decltype(std::declval<const S&>().empty()), bool> {};

template <typename S, typename = void>
struct has_size : std::false_type {};
template <typename S>
struct has_size<S, void_t<decltype(std::declval<const S&>().size())>>
    : std::is_convertible<decltype(std::declval<const S&>().size()),
                          std::size_t> {};

template <typename S, typename = void>
struct has_reserve : std::false_type {};
template <typename S>
struct has_reserve<
    S, void_t<decltype(std::declval<S&>().reserve(std::size_t{}))>>
    : std::true_type {};

template <typename S, typename = void>
struct has_top_key : std::false_type {};
template <typename S>
struct has_top_key<S, void_t<decltype(std::declval<const S&>().top_key())>>
    : std::is_convertible<decltype(std::declval<const S&>().top_key()),
                          const key_t<S>&> {};

template <typename S, typename = void>
struct has_top : std::false_type {};
template <typename S>
struct has_top<S, void_t<decltype(std::declval<const S&>().top())>>
    : std::is_convertible<decltype(std::declval<const S&>().top()),
                          const typename S::entry&> {};

template <typename S, typename = void>
struct has_push : std::false_type {};
template <typename S>
struct has_push<S, void_t<decltype(std::declval<S&>().push(
                       std::declval<const key_t<S>&>(),
                       std::declval<const value_t<S>&>()))>>
    : std::true_type {};

template <typename S, typename = void>
struct has_pop : std::false_type {};
template <typename S>
struct has_pop<S, void_t<decltype(std::declval<S&>().pop())>>
    : std::is_same<decltype(std::declval<S&>().pop()), typename S::entry> {};

}  // namespace heap_concept_detail

/// True iff S models the heap substrate concept (see header comment).
template <typename S, typename = void>
struct is_heap_substrate : std::false_type {};
template <typename S>
struct is_heap_substrate<
    S,
    typename std::enable_if<heap_concept_detail::has_entry<S>::value>::type>
    : std::integral_constant<
          bool, heap_concept_detail::has_empty<S>::value &&
                    heap_concept_detail::has_size<S>::value &&
                    heap_concept_detail::has_reserve<S>::value &&
                    heap_concept_detail::has_top_key<S>::value &&
                    heap_concept_detail::has_top<S>::value &&
                    heap_concept_detail::has_push<S>::value &&
                    heap_concept_detail::has_pop<S>::value &&
                    std::is_move_constructible<S>::value> {};

}  // namespace pcq

/// Granular conformance asserts: one message per missing requirement,
/// instantiated per substrate by test_heap_substrates (and by the queues
/// that embed a substrate).
#define PCQ_ASSERT_HEAP_CONCEPT(S)                                          \
  static_assert(pcq::heap_concept_detail::has_entry<S>::value,              \
                "heap concept: S::entry must be std::pair<Key, Value>");    \
  static_assert(pcq::heap_concept_detail::has_empty<S>::value,              \
                "heap concept: bool s.empty() const missing");              \
  static_assert(pcq::heap_concept_detail::has_size<S>::value,               \
                "heap concept: std::size_t s.size() const missing");        \
  static_assert(pcq::heap_concept_detail::has_reserve<S>::value,            \
                "heap concept: s.reserve(std::size_t) missing");            \
  static_assert(pcq::heap_concept_detail::has_top_key<S>::value,            \
                "heap concept: const Key& s.top_key() const missing");      \
  static_assert(pcq::heap_concept_detail::has_top<S>::value,                \
                "heap concept: const entry& s.top() const missing");        \
  static_assert(pcq::heap_concept_detail::has_push<S>::value,               \
                "heap concept: s.push(const Key&, const Value&) missing");  \
  static_assert(pcq::heap_concept_detail::has_pop<S>::value,                \
                "heap concept: entry s.pop() missing");                     \
  static_assert(std::is_move_constructible<S>::value,                       \
                "heap concept: substrates must be move-constructible");     \
  static_assert(pcq::is_heap_substrate<S>::value,                           \
                "heap concept: is_heap_substrate<S> must hold")

// heap/ — behavioral equivalence for every sequential heap, dary_heap<A>
// and buffered_heap<B>, the heap every MultiQueue slot holds.
//
// Per heap: randomized interleaved push/pop against a std::priority_queue
// oracle (bounded key range, so duplicate keys are constantly exercised);
// a full ordered drain; move-construction mid-stream; reserve under later
// growth; and a std::greater instantiation (max-heap semantics).
//
// buffered_heap: named edge cases for each path between its three parts
// (deletion buffer, insertion buffer, sorted-run store), checked against
// a sorted oracle and against the part sizes the path must leave, plus the
// header size the MultiQueue lock-line budget rests on; the flush's
// sorting network, checked on every 0/1 input; sized prefills (ascending
// and random keys, some past the 2 MiB huge-page span) through the heap
// and through the MultiQueue itself; and a randomized differential test
// against a std::multiset that also bounds the run ladder after every
// refill.

#include "heap/buffered_heap.hpp"
#include "heap/dary_heap.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "core/multi_queue.hpp"
#include "test_macros.hpp"
#include "util/rng.hpp"

namespace {

using u64 = std::uint64_t;

template <typename Selector>
using sub_t = pcq::heap_substrate_t<Selector, u64, u64, std::less<u64>>;
template <typename Selector>
using max_sub_t = pcq::heap_substrate_t<Selector, u64, u64, std::greater<u64>>;

constexpr u64 kValueMix = 0x9E3779B97F4A7C15ull;
u64 value_of(u64 key) { return key * kValueMix + 1; }

using min_oracle =
    std::priority_queue<u64, std::vector<u64>, std::greater<u64>>;

/// Random interleaved ops against the STL oracle. Keys are drawn from a
/// tiny range so duplicates pile up; values are key-derived, so checking
/// value_of(key) proves the (key, value) pairing traveled intact even
/// when the pop order among equal keys is substrate-specific.
template <typename Heap>
void oracle_interleaved(std::uint64_t seed, std::size_t ops) {
  Heap h;
  min_oracle oracle;
  pcq::xoshiro256ss rng(seed);
  for (std::size_t i = 0; i < ops; ++i) {
    if (oracle.empty() || rng.bounded(100) < 55) {
      const u64 k = rng.bounded(48);
      h.push(k, value_of(k));
      oracle.push(k);
    } else {
      const auto e = h.pop();
      CHECK(e.first == oracle.top());
      CHECK(e.second == value_of(e.first));
      oracle.pop();
    }
    CHECK(h.size() == oracle.size());
    CHECK(h.empty() == oracle.empty());
    if (!h.empty()) {
      CHECK(h.top_key() == oracle.top());
      CHECK(h.top().first == h.top_key());
      CHECK(h.top().second == value_of(h.top().first));
    }
  }
  while (!h.empty()) {
    CHECK(h.pop().first == oracle.top());
    oracle.pop();
  }
}

/// Bulk push (wide key range), full drain: non-decreasing keys and exact
/// key-sum conservation.
template <typename Heap>
void ordered_drain(std::uint64_t seed, std::size_t n) {
  Heap h;
  pcq::xoshiro256ss rng(seed);
  u64 sum_in = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const u64 k = rng() >> 1;
    h.push(k, value_of(k));
    sum_in += k;
  }
  CHECK(h.size() == n);
  u64 sum_out = 0, prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto e = h.pop();
    CHECK(i == 0 || e.first >= prev);
    CHECK(e.second == value_of(e.first));
    prev = e.first;
    sum_out += e.first;
  }
  CHECK(h.empty());
  CHECK(sum_in == sum_out);
}

/// Move-construct mid-stream; the new object continues against the
/// oracle, proving internal pointers/indices survived the move.
template <typename Heap>
void move_mid_stream(std::uint64_t seed) {
  Heap a;
  min_oracle oracle;
  pcq::xoshiro256ss rng(seed);
  for (std::size_t i = 0; i < 300; ++i) {
    const u64 k = rng.bounded(1000);
    a.push(k, value_of(k));
    oracle.push(k);
  }
  for (std::size_t i = 0; i < 50; ++i) {
    CHECK(a.pop().first == oracle.top());
    oracle.pop();
  }
  Heap b(std::move(a));
  CHECK(b.size() == oracle.size());
  for (std::size_t i = 0; i < 100; ++i) {
    const u64 k = rng.bounded(1000);
    b.push(k, value_of(k));
    oracle.push(k);
  }
  while (!b.empty()) {
    CHECK(b.pop().first == oracle.top());
    oracle.pop();
  }
  CHECK(oracle.empty());
}

/// reserve is a hint, never a limit: growth far past it stays correct.
template <typename Heap>
void reserve_then_overflow(std::uint64_t seed) {
  Heap h;
  h.reserve(128);
  pcq::xoshiro256ss rng(seed);
  u64 sum_in = 0;
  for (std::size_t i = 0; i < 1000; ++i) {
    const u64 k = rng() >> 1;
    h.push(k, 0);
    sum_in += k;
  }
  u64 sum_out = 0;
  while (!h.empty()) sum_out += h.pop().first;
  CHECK(sum_in == sum_out);
}

/// std::greater flips the substrate into a max-heap: drain non-increasing.
template <typename MaxHeap>
void max_heap_drain(std::uint64_t seed) {
  MaxHeap h;
  pcq::xoshiro256ss rng(seed);
  for (std::size_t i = 0; i < 500; ++i) h.push(rng.bounded(100), 0);
  u64 prev = ~u64{0};
  while (!h.empty()) {
    const u64 k = h.pop().first;
    CHECK(k <= prev);
    prev = k;
  }
}

template <typename Selector>
void substrate_suite(std::uint64_t seed) {
  oracle_interleaved<sub_t<Selector>>(seed, 6000);
  ordered_drain<sub_t<Selector>>(seed + 1, 4096);
  move_mid_stream<sub_t<Selector>>(seed + 2);
  reserve_then_overflow<sub_t<Selector>>(seed + 3);
  max_heap_drain<max_sub_t<Selector>>(seed + 4);
}

// ---- buffered_heap edge cases ----

template <std::size_t B>
using buffered_t = pcq::buffered_heap_t<u64, u64, std::less<u64>, B>;

// Line budget: two 32-bit counts, the runs' entry count, the run store's
// pointer and padding (empty comparators), so behind a slot's lock, top
// and count (24 bytes) the header ends exactly on the lock line.
static_assert(sizeof(void*) != 8 ||
                  sizeof(buffered_t<16>) ==
                      40 + 2 * 16 * sizeof(std::pair<u64, u64>),
              "buffered_heap header must stay 40 bytes on LP64");

/// Pops everything and checks it against the sorted multiset of pushed
/// (key, value) pairs: keys in order, every pair delivered exactly once.
template <typename Heap>
void drain_matches(Heap& h, std::vector<std::pair<u64, u64>> pushed) {
  std::sort(pushed.begin(), pushed.end());
  std::vector<std::pair<u64, u64>> popped;
  while (!h.empty()) {
    const std::size_t before = h.size();
    popped.push_back(h.pop());
    CHECK(h.size() == before - 1);
    CHECK(popped.size() < 2 ||
          popped[popped.size() - 2].first <= popped.back().first);
  }
  CHECK(h.size() == 0);
  std::sort(popped.begin(), popped.end());
  CHECK(popped == pushed);
}

/// A push below every key of a full deletion buffer evicts its max into
/// the insertion buffer.
template <std::size_t B>
void buffered_push_below_full_deletion() {
  buffered_t<B> h;
  std::vector<std::pair<u64, u64>> pushed;
  for (u64 i = 0; i < B; ++i) {
    h.push(100 + i, i);
    pushed.emplace_back(100 + i, i);
  }
  CHECK(h.deletion_size() == B && h.insertion_size() == 0);
  h.push(1, 999);
  pushed.emplace_back(1, 999);
  CHECK(h.deletion_size() == B && h.insertion_size() == 1);
  CHECK(h.top_key() == 1 && h.top().second == 999);
  drain_matches(h, pushed);
}

/// A pop that empties the deletion buffer while the insertion buffer is
/// non-empty (no runs) sorts the insertion buffer into it.
template <std::size_t B>
void buffered_pop_refills_from_insertions() {
  buffered_t<B> h;
  std::vector<std::pair<u64, u64>> pushed;
  for (u64 i = 0; i < B; ++i) {
    h.push(i, i);
    pushed.emplace_back(i, i);
  }
  pcq::xoshiro256ss rng(0xb0f);
  u64 least_inserted = ~u64{0};
  for (u64 i = 0; i < B; ++i) {
    const u64 k = 1000 + rng.bounded(100);
    least_inserted = std::min(least_inserted, k);
    h.push(k, 500 + i);
    pushed.emplace_back(k, 500 + i);
  }
  CHECK(h.deletion_size() == B && h.insertion_size() == B);
  for (u64 i = 0; i < B; ++i) CHECK(h.pop().first == i);
  CHECK(h.deletion_size() == B && h.insertion_size() == 0);
  CHECK(h.size() == B && h.top_key() == least_inserted);
  pushed.erase(pushed.begin(), pushed.begin() + B);
  drain_matches(h, pushed);
}

/// A refill takes the B least run entries, then moves an insertion below
/// them into the deletion buffer, whose max moves out to the insertion
/// buffer.
template <std::size_t B>
void buffered_refill_absorbs_insertions() {
  buffered_t<B> h;
  std::vector<std::pair<u64, u64>> pushed;
  for (u64 i = 0; i < B; ++i) {
    h.push(i, i);
    pushed.emplace_back(i, i);
  }
  // B + 1 keys past the deletion buffer: B fill the insertion buffer,
  // the last flushes them into a run and waits in the insertion buffer.
  for (u64 i = 0; i <= B; ++i) {
    h.push(2000 - i, i);
    pushed.emplace_back(2000 - i, i);
  }
  CHECK(h.deletion_size() == B && h.insertion_size() == 1);
  CHECK(h.size() == 2 * B + 1 && h.run_count() == 1);
  for (u64 i = 0; i < B; ++i) CHECK(h.pop().first == i);
  CHECK(h.deletion_size() == B && h.insertion_size() == 1);
  CHECK(h.run_count() == 0 && h.top_key() == 2000 - B);
  CHECK(h.size() == B + 1);  // the insertion buffer holds 2000
  for (u64 i = 0; i < B; ++i) h.pop();
  CHECK(h.deletion_size() == 1 && h.size() == 1);
  CHECK(h.top_key() == 2000);
  pushed.erase(pushed.begin(), pushed.begin() + B);
  std::sort(pushed.begin(), pushed.end());
  pushed.erase(pushed.begin(), pushed.begin() + B);
  drain_matches(h, pushed);
}

/// Duplicate keys spread across the deletion buffer, the insertion
/// buffer and the runs: every (key, value) pair comes out once.
template <std::size_t B>
void buffered_duplicates_across_parts() {
  buffered_t<B> h;
  std::vector<std::pair<u64, u64>> pushed;
  u64 v = 0;
  auto push = [&](u64 k) {
    h.push(k, v);
    pushed.emplace_back(k, v++);
  };
  for (std::size_t i = 0; i < 3 * B + 1; ++i) push(5);
  CHECK(h.deletion_size() == B && h.insertion_size() == 1);
  CHECK(h.size() - h.deletion_size() - h.insertion_size() == 2 * B);
  for (std::size_t i = 0; i < B; ++i) push(3);  // each evicts a 5
  for (std::size_t i = 0; i < B; ++i) push(7);
  CHECK(h.deletion_size() == B && h.insertion_size() > 0);
  CHECK(h.size() - h.deletion_size() - h.insertion_size() > 0);
  CHECK(h.top_key() == 3);
  drain_matches(h, pushed);
}

std::vector<std::pair<u64, u64>> ascending_batch(std::size_t n) {
  std::vector<std::pair<u64, u64>> batch;
  for (std::size_t i = 0; i < n; ++i) batch.emplace_back(3 * i, i);
  return batch;
}

/// reserve followed by an ascending batch of the reserved size — what
/// multi_queue's push_batch does to a slot during a sized prefill.
template <std::size_t B>
void buffered_reserve_then_ascending_batch(std::size_t n) {
  buffered_t<B> h;
  h.reserve(n);
  const auto pushed = ascending_batch(n);
  for (const auto& e : pushed) h.push(e.first, e.second);
  CHECK(h.size() == n && h.deletion_size() == std::min(n, B));
  CHECK(h.top_key() == 0);
  drain_matches(h, pushed);
}

std::vector<std::pair<u64, u64>> random_batch(std::size_t n,
                                              std::uint64_t seed) {
  pcq::xoshiro256ss rng(seed);
  std::vector<std::pair<u64, u64>> batch;
  for (std::size_t i = 0; i < n; ++i) {
    batch.emplace_back(rng.bounded(1u << 30), i);
  }
  return batch;
}

/// reserve followed by random keys of the reserved size, the share of one
/// MultiQueue slot in a deep prefill. At n = 2^18 the arena spans 4 MiB,
/// so reserve advises its huge-page interior before the flushes fill it.
template <std::size_t B>
void buffered_reserve_then_random_batch(std::size_t n, std::uint64_t seed) {
  buffered_t<B> h;
  h.reserve(n);
  const auto pushed = random_batch(n, seed);
  for (const auto& e : pushed) h.push(e.first, e.second);
  CHECK(h.size() == n);
  drain_matches(h, pushed);
}

/// A sized prefill through the MultiQueue itself, with
/// expected_capacity = the batch's size, at 2 threads (4 slots), pushed
/// in push_batch calls of `chunk` entries (each lands in one slot).
void queue_reserve_then_batch(const std::vector<std::pair<u64, u64>>& pushed,
                              std::size_t chunk) {
  const std::size_t n = pushed.size();
  pcq::mq_config cfg;
  cfg.expected_capacity = n;
  pcq::multi_queue<u64, u64> queue(cfg, 2);
  auto handle = queue.get_handle(0);
  for (std::size_t i = 0; i < n; i += chunk) {
    handle.push_batch(pushed.data() + i, std::min(chunk, n - i));
  }
  CHECK(queue.size() == n);
  std::vector<std::pair<u64, u64>> popped;
  u64 key = 0, value = 0;
  while (handle.try_pop(key, value)) popped.emplace_back(key, value);
  std::sort(popped.begin(), popped.end());
  auto expected = pushed;
  std::sort(expected.begin(), expected.end());
  CHECK(popped == expected);
  CHECK(queue.size() == 0);
}

// ---- the flush's sorting network ----

template <std::size_t B>
using network_t = pcq::heap_detail::sorting_network<B>;

/// By the 0-1 principle a comparator network sorts every input iff it
/// sorts every 0/1 input: all 2^B of them, each value (the input index)
/// coming out exactly once.
template <std::size_t B>
void network_sorts_zero_one_inputs() {
  static_assert(B <= 20, "2^B inputs");
  for (u64 bits = 0; bits < (u64{1} << B); ++bits) {
    std::pair<u64, u64> a[B];
    for (std::size_t i = 0; i < B; ++i) a[i] = {(bits >> i) & 1, i};
    network_t<B>::sort(a, std::less<u64>());
    bool seen[B] = {};
    for (std::size_t i = 0; i < B; ++i) {
      CHECK(i == 0 || a[i - 1].first <= a[i].first);
      CHECK(a[i].first == ((bits >> a[i].second) & 1));
      CHECK(!seen[a[i].second]);
      seen[a[i].second] = true;
    }
  }
}

/// B equal keys with distinct values: the exchanges move whole pairs, so
/// every pair comes out exactly once.
template <std::size_t B>
void network_keeps_equal_key_pairs() {
  std::pair<u64, u64> a[B];
  for (std::size_t i = 0; i < B; ++i) a[i] = {42, value_of(i)};
  network_t<B>::sort(a, std::less<u64>());
  std::vector<std::pair<u64, u64>> out(a, a + B), want;
  for (std::size_t i = 0; i < B; ++i) want.emplace_back(42, value_of(i));
  std::sort(out.begin(), out.end());
  std::sort(want.begin(), want.end());
  CHECK(out == want);
}

/// Random keys through many flushes (every push past the deletion buffer
/// lands in the insertion buffer), drained against the sorted oracle.
template <std::size_t B>
void network_flushes_random_keys(std::uint64_t seed) {
  buffered_t<B> h;
  const auto pushed = random_batch(512 * B, seed);
  for (const auto& e : pushed) h.push(e.first, e.second);
  // Every push past the first B spills one entry, and the last B spills
  // still wait in the insertion buffer.
  CHECK(h.run_count() == 510 && h.insertion_size() == B);
  drain_matches(h, pushed);
}

template <std::size_t B>
void network_cases(std::uint64_t seed) {
  network_sorts_zero_one_inputs<B>();
  network_keeps_equal_key_pairs<B>();
  network_flushes_random_keys<B>(seed);
}

/// Randomized differential test against a std::multiset of (key, value)
/// pairs. Values are unique, so a popped pair found in (and erased from)
/// the model came out exactly once. After every operation size() and
/// top_key() match the model; after every refill the runs form a size
/// ladder (a flush makes B entries, and each run was built less than half
/// as long as the older one beside it), so there are at most
/// floor(log2(peak size / B)) + 1 of them.
template <std::size_t B>
class buffered_differential {
 public:
  explicit buffered_differential(std::uint64_t seed) : rng_(seed) {}

  void push(u64 key) {
    h_.push(key, next_value_);
    model_.emplace(key, next_value_++);
    peak_ = std::max(peak_, model_.size());
    check_front();
  }

  void pop() {
    const bool refills = h_.deletion_size() == 1;
    const auto e = h_.pop();
    CHECK(e.first == model_.begin()->first);
    const auto it = model_.find(e);
    CHECK(it != model_.end());
    if (it != model_.end()) model_.erase(it);
    if (refills && !h_.empty()) {
      std::size_t ladder = 1;
      for (std::size_t q = peak_ / B; q > 1; q >>= 1) ++ladder;
      CHECK(h_.run_count() <= ladder);
    }
    check_front();
  }

  /// Random pushes (probability push_pct/100, keys from key()) and pops.
  template <typename KeyFn>
  void mix(std::size_t ops, std::uint64_t push_pct, KeyFn key) {
    for (std::size_t i = 0; i < ops; ++i) {
      if (model_.empty() || rng_.bounded(100) < push_pct) {
        push(key(rng_));
      } else {
        pop();
      }
    }
  }

  void drain() {
    while (!model_.empty()) pop();
    CHECK(h_.empty() && h_.size() == 0);
  }

 private:
  void check_front() {
    CHECK(h_.size() == model_.size());
    CHECK(h_.empty() == model_.empty());
    if (!model_.empty()) CHECK(h_.top_key() == model_.begin()->first);
  }

  buffered_t<B> h_;
  std::multiset<std::pair<u64, u64>> model_;
  pcq::xoshiro256ss rng_;
  u64 next_value_ = 0;
  std::size_t peak_ = 0;
};

template <std::size_t B>
void buffered_differential_phases(std::uint64_t seed) {
  {  // random keys over a wide range, growing then shrinking
    buffered_differential<B> d(seed);
    const auto wide = [](pcq::xoshiro256ss& rng) { return rng() >> 1; };
    d.mix(20000, 60, wide);
    d.mix(20000, 40, wide);
    d.drain();
  }
  {  // ascending keys: every push lands behind everything held
    buffered_differential<B> d(seed + 1);
    u64 next = 0;
    d.mix(20000, 60, [&next](pcq::xoshiro256ss& rng) {
      return next += rng.bounded(4);
    });
    d.drain();
  }
  {  // a narrow key range: runs full of duplicates
    buffered_differential<B> d(seed + 2);
    const auto narrow = [](pcq::xoshiro256ss& rng) { return rng.bounded(8); };
    d.mix(20000, 55, narrow);
    d.drain();
  }
  {  // bulk prefill, then a full drain: the first refill folds every run
    buffered_differential<B> d(seed + 3);
    pcq::xoshiro256ss keys(seed + 4);
    for (std::size_t i = 0; i < (std::size_t{1} << 16); ++i) {
      d.push(keys.bounded(1u << 30));
    }
    d.drain();
  }
}

template <std::size_t B>
void buffered_edge_cases() {
  buffered_push_below_full_deletion<B>();
  buffered_pop_refills_from_insertions<B>();
  buffered_duplicates_across_parts<B>();
  buffered_reserve_then_ascending_batch<B>(std::size_t{1} << 16);
}

}  // namespace

int main() {
  substrate_suite<pcq::dary_heap<2>>(0x5d2);
  substrate_suite<pcq::dary_heap<4>>(0x5d4);
  substrate_suite<pcq::dary_heap<8>>(0x5d8);
  substrate_suite<pcq::buffered_heap<16>>(0x5b16);
  substrate_suite<pcq::buffered_heap<1>>(0x5b01);

  buffered_edge_cases<16>();
  buffered_edge_cases<1>();
  buffered_refill_absorbs_insertions<16>();
  buffered_refill_absorbs_insertions<4>();
  buffered_differential_phases<1>(0xd1f1);
  buffered_differential_phases<3>(0xd1f3);
  buffered_differential_phases<16>(0xd1f16);
  network_cases<1>(0x7e01);
  network_cases<3>(0x7e03);
  network_cases<4>(0x7e04);
  network_cases<16>(0x7e16);
  queue_reserve_then_batch(ascending_batch(std::size_t{1} << 16),
                           std::size_t{1} << 16);
  // Past the 2 MiB huge-page span: a 4 MiB heap arena, and about
  // 2.6 MiB reserved per queue slot, filled in hold_deep's 4096-entry
  // batches.
  buffered_reserve_then_random_batch<16>(std::size_t{1} << 18, 0x4a6e);
  queue_reserve_then_batch(random_batch(std::size_t{1} << 19, 0x4a6f), 4096);

  std::printf("test_heap_substrates OK\n");
  return 0;
}

// Buffered heap: a sorted deletion buffer and an unsorted insertion
// buffer in front of a store of ascending sorted runs — the heap every
// MultiQueue slot holds, at B = 16. The buffers are the buffered half of
// Williams, Sanders & Dementiev, "Engineering MultiQueues" (ESA 2021,
// arXiv:2107.01350), without its sticky operations; the run store is the
// merged sorted runs of Sanders' sequence heap ("Fast Priority Queues for
// Cached Memory", JEA 2000). The structure pops the exact minimum, so a
// MultiQueue slot publishes its true least key, and every sample, RNG
// draw and popped key of the paper's process is what any exact heap
// would give.
//
// Parts and invariant (B = buffer capacity):
//
//   del_[0..nd)  the slot's nd least entries, sorted DESCENDING, so the
//                minimum sits at del_[nd-1] and a pop is one read;
//   ins_[0..ni)  recent inserts, unsorted;
//   runs         everything else: ascending sorted runs in one arena,
//                oldest first, each consumed from its head.
//
//   Every entry in ins_ or a run is >= del_[0] (the deletion buffer's
//   max), and nd > 0 iff the structure is non-empty. So top() is always
//   del_[nd-1], and a pop that empties del_ refills it at once.
//
// push: below the deletion buffer's max -> sorted insert into del_ (a
// full del_ evicts its max into ins_); otherwise into del_ while it has
// room and nothing lives outside it, else into ins_. A full ins_ is
// sorted into a new run at the arena's tail; a push never merges runs.
//
// flush: ins_ is sorted in place by Batcher's odd-even merge network
// for B inputs (heap_detail::sorting_network), unrolled at compile time,
// each compare-exchange picking its sources through a pointer mask as a
// merge does. On a 4-vCPU x86-64 box (gcc 12, -O3) one 16-entry sort of
// random keys takes 73-100 ns against 211-236 ns for std::sort, whose
// branches on random keys mispredict. Only the order of equal keys
// within one run can differ from std::sort's.
//
// pop: take del_[nd-1]; a pop that empties del_ refills it:
//   1. fold: the runs appended since the last refill join a size ladder
//      one by one, the two newest runs merging while the newer holds at
//      least half as many entries as the older. A flush makes B entries
//      and each run was built less than half as long as the older one
//      beside it, so a fold leaves at most log2(p/B) + 1 runs, p being
//      the most entries the structure has held;
//   2. take the B least run entries by comparing run heads; a run that
//      runs out is dropped;
//   3. move in every entry of ins_ below del_'s max, the max moving out
//      to its place (with no runs, ins_ moves in whole).
// A refill reads each run's head line in order instead of walking B
// root-to-leaf paths of a heap, and leaves ins_ in place.
//
// Arena: the runs tile it oldest first; a run's live entries follow its
// consumed ones. A merge writes over its two inputs from the older one's
// head: the older entries up to the newer run's least stay put (all of
// them when the runs do not overlap) and the rest are copied to a reused
// scratch buffer first. The arena's size is the last run's end and its
// capacity is what it may fill: a flush into a full arena compacts it
// when at least half of what the runs span is consumed, else doubles its
// capacity, so the arena allocates no memory per flush. reserve(n)
// reserves capacity (it writes no entry) and the run list for n
// entries, so a sized prefill never reallocates. On Linux it also
// advises huge pages (madvise MADV_HUGEPAGE) for the 2 MiB-aligned
// interior of the arena, when that spans at least one huge page, so the
// prefill's first writes fault in 2 MiB at a time, not 4 KiB. On the
// same box, reserve(2^18) plus 2^18 random pushes takes 577 minor faults
// instead of 1,088; a 2^21-entry prefill of an 8-slot MultiQueue with
// expected_capacity set takes about 2,000 instead of 6,630, and its push
// loop 23-31 ms instead of 40-48 ms (sort and huge pages together).
//
// Line budget: with 16-byte entries the header (two 32-bit buffer
// counts, the runs' entry count, the run store's pointer and padding;
// the comparators are empty bases) is 40 bytes, so behind a MultiQueue
// slot's 24 bytes of lock, top and count it ends exactly on the lock
// line, and del_ starts on the next line. A slot holding at most 4
// entries touches the lock line and one buffer line, a slot that never
// holds more than 2B entries never leaves its own lines, and only a
// flush or a refill reaches the run store.

#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "heap/dary_heap.hpp"

namespace pcq {

namespace heap_detail {

/// Batcher's odd-even merge sorting network for N inputs, generated at
/// compile time: the network for the next power of two, less every
/// comparator that touches an index >= N. Those indices would hold
/// +infinity, which no comparator moves below N, so what is left sorts
/// any N entries (N = 16: 63 comparators in 10 layers).
template <std::size_t N>
class sorting_network {
  struct comparator {
    std::size_t lo, hi;
  };

  // Writes the comparators to out (when non-null) and returns how many.
  static constexpr std::size_t generate(comparator* out) {
    std::size_t p2 = 1;
    while (p2 < N) p2 *= 2;
    std::size_t count = 0;
    for (std::size_t p = 1; p < p2; p *= 2) {
      for (std::size_t k = p; k >= 1; k /= 2) {
        for (std::size_t j = k % p; j + k < p2; j += 2 * k) {
          for (std::size_t i = 0; i < k && i + j + k < N; ++i) {
            if ((i + j) / (2 * p) != (i + j + k) / (2 * p)) continue;
            if (out != nullptr) out[count] = comparator{i + j, i + j + k};
            ++count;
          }
        }
      }
    }
    return count;
  }

  static constexpr std::size_t kSize = generate(nullptr);

  static constexpr std::array<comparator, kSize> make() {
    std::array<comparator, kSize> net{};
    generate(net.data());
    return net;
  }

  static constexpr std::array<comparator, kSize> kNet = make();

  // Branch-free: the comparison picks each output's source through a
  // pointer mask, since a branch on data-random keys mispredicts half
  // the time.
  template <std::size_t Lo, std::size_t Hi, typename Entry, typename Less>
  static void compare_exchange(Entry* a, const Less& less) {
    const std::uintptr_t mask =
        0 - static_cast<std::uintptr_t>(less(a[Hi].first, a[Lo].first));
    const std::uintptr_t lo = reinterpret_cast<std::uintptr_t>(a + Lo);
    const std::uintptr_t hi = reinterpret_cast<std::uintptr_t>(a + Hi);
    const Entry least = *reinterpret_cast<const Entry*>((hi & mask) |
                                                        (lo & ~mask));
    const Entry most = *reinterpret_cast<const Entry*>((lo & mask) |
                                                       (hi & ~mask));
    a[Lo] = least;
    a[Hi] = most;
  }

  template <typename Entry, typename Less, std::size_t... I>
  static void apply([[maybe_unused]] Entry* a,
                    [[maybe_unused]] const Less& less,
                    std::index_sequence<I...>) {
    (compare_exchange<kNet[I].lo, kNet[I].hi>(a, less), ...);
  }

 public:
  /// Sorts a[0..N) ascending by key under less; equal keys may end in
  /// any order.
  template <typename Entry, typename Less>
  static void sort(Entry* a, const Less& less) {
    apply(a, less, std::make_index_sequence<kSize>());
  }
};

}  // namespace heap_detail

template <typename Key, typename Value, typename Compare = std::less<Key>,
          std::size_t B = 16>
class buffered_heap_t : private heap_detail::compare_holder<Compare> {
  static_assert(B >= 1 && B <= UINT32_MAX,
                "buffered_heap capacity must be in [1, 2^32)");

 public:
  using entry = std::pair<Key, Value>;

  explicit buffered_heap_t(Compare compare = Compare())
      : heap_detail::compare_holder<Compare>(compare) {}

  bool empty() const { return nd_ == 0; }
  std::size_t size() const { return nd_ + ni_ + stored_; }
  void reserve(std::size_t n) {
    if (n == 0) return;
    run_store& s = store();
    s.arena.reserve(n);
    s.runs.reserve(n / B + 1);
#if defined(__linux__) && defined(MADV_HUGEPAGE)
    // The first flushes fault the arena in page by page; huge pages cut
    // those faults by up to 512x. Only the 2 MiB-aligned interior can be
    // advised, and advice is a hint, so its result is ignored.
    constexpr std::uintptr_t kHugePage = std::uintptr_t{1} << 21;
    const auto first = reinterpret_cast<std::uintptr_t>(s.arena.data());
    const std::uintptr_t begin = (first + kHugePage - 1) & ~(kHugePage - 1);
    const std::uintptr_t end =
        (first + s.arena.capacity() * sizeof(entry)) & ~(kHugePage - 1);
    if (end > begin) {
      ::madvise(reinterpret_cast<void*>(begin), end - begin, MADV_HUGEPAGE);
    }
#endif
  }

  const Key& top_key() const { return del_[nd_ - 1].first; }
  const entry& top() const { return del_[nd_ - 1]; }

  /// Entries in the deletion and insertion buffers, and sorted runs in
  /// the store (for tests).
  std::size_t deletion_size() const { return nd_; }
  std::size_t insertion_size() const { return ni_; }
  std::size_t run_count() const { return store_ ? store_->runs.size() : 0; }

  void push(const Key& key, const Value& value) {
    const Compare& less = this->comp();
    // nd_ == 0 means the structure is empty, so the first test holds and
    // del_[0] is never read uninitialized.
    const entry e(key, value);
    if (nd_ < B &&
        ((ni_ == 0 && stored_ == 0) || less(key, del_[0].first))) {
      insert_with_room(e);
    } else if (less(key, del_[0].first)) {
      spill(replace_max(e));
    } else {
      spill(e);
    }
  }

  entry pop() {
    entry result = del_[--nd_];
    if (nd_ == 0) refill();
    return result;
  }

 private:
  // An ascending run: its live entries are arena[head, end). The arena
  // slots from the previous run's end (0 for the first run) up to head
  // are consumed, so the runs tile the arena up to the last run's end.
  struct run {
    std::size_t head, end;
  };

  struct run_store {
    std::vector<entry> arena;
    std::vector<run> runs;       // oldest first
    std::vector<entry> scratch;  // a merge's copy of its older input
    std::size_t fresh = 0;       // runs[fresh..) were appended since the
                                 // last refill and are not yet folded
  };

  static std::size_t length(const run& r) { return r.end - r.head; }

  run_store& store() {
    if (!store_) store_.reset(new run_store);
    return *store_;
  }

  // del_ has room: shift the smaller entries one toward the back.
  void insert_with_room(const entry& e) {
    const Compare& less = this->comp();
    std::size_t j = nd_++;
    while (j > 0 && less(del_[j - 1].first, e.first)) {
      del_[j] = del_[j - 1];
      --j;
    }
    del_[j] = e;
  }

  // del_ is full and e is below its max: the max moves out, the larger
  // entries shift one toward the front into its place.
  entry replace_max(const entry& e) {
    const Compare& less = this->comp();
    const entry max = del_[0];
    std::size_t j = 0;
    while (j + 1 < B && less(e.first, del_[j + 1].first)) {
      del_[j] = del_[j + 1];
      ++j;
    }
    del_[j] = e;
    return max;
  }

  void spill(const entry& e) {
    if (ni_ == B) flush_insertions();
    ins_[ni_++] = e;
  }

  // Called with ins_ full: sorts it into a new run at the arena's tail.
  void flush_insertions() {
    run_store& s = store();
    // Nothing lives past the last run's end; a refill may have dropped
    // the run that ended there.
    s.arena.resize(s.runs.empty() ? 0 : s.runs.back().end);
    if (s.arena.size() + B > s.arena.capacity()) {
      if (s.arena.size() - stored_ >= stored_) s.arena.resize(compact(s));
      if (s.arena.size() + B > s.arena.capacity()) {
        s.arena.reserve(
            std::max(2 * s.arena.capacity(), s.arena.size() + 4 * B));
      }
    }
    heap_detail::sorting_network<B>::sort(ins_, this->comp());
    const std::size_t tail = s.arena.size();
    s.arena.insert(s.arena.end(), ins_, ins_ + B);
    s.runs.push_back(run{tail, tail + B});
    stored_ += B;
    ni_ = 0;
  }

  // Slides every run's live entries down over the consumed slots;
  // returns the new tail (== stored_).
  static std::size_t compact(run_store& s) {
    entry* arena = s.arena.data();
    std::size_t tail = 0;
    for (run& r : s.runs) {
      const std::size_t n = length(r);
      if (tail != r.head) {
        std::copy(arena + r.head, arena + r.end, arena + tail);
      }
      r = run{tail, tail + n};
      tail += n;
    }
    return tail;
  }

  // Merges runs[x + 1] into runs[x], in place from runs[x]'s head. The
  // entries of runs[x] up to runs[x + 1]'s least stay where they are
  // (all of them when the runs do not overlap); the rest are copied to
  // scratch. The write position never passes the next unread entry of
  // runs[x + 1], and once scratch runs out what is left of runs[x + 1]
  // is already in place unless consumed slots lay between the two.
  void merge(run_store& s, std::size_t x) {
    run& a = s.runs[x];
    const run b = s.runs[x + 1];
    entry* arena = s.arena.data();
    const Compare& less = this->comp();
    entry* w = arena + a.end;
    if (less(arena[b.head].first, arena[a.end - 1].first)) {
      w = std::upper_bound(arena + a.head, w, arena[b.head], key_less());
    }
    const std::size_t na = static_cast<std::size_t>(arena + a.end - w);
    if (s.scratch.size() < na) {
      s.scratch.resize(std::max(na, 2 * s.scratch.size()));
    }
    const entry* sp = s.scratch.data();
    const entry* se = std::copy(w, arena + a.end, s.scratch.data());
    const entry* bp = arena + b.head;
    const entry* be = arena + b.end;
    while (sp != se && bp != be) {
      // Branch-free: the comparison picks a source through a mask, since
      // a branch on data-random keys mispredicts half the time.
      const bool take_b = less(bp->first, sp->first);
      const std::uintptr_t mask = 0 - static_cast<std::uintptr_t>(take_b);
      *w++ = *reinterpret_cast<const entry*>(
          (reinterpret_cast<std::uintptr_t>(bp) & mask) |
          (reinterpret_cast<std::uintptr_t>(sp) & ~mask));
      bp += take_b;
      sp += !take_b;
    }
    w = std::copy(sp, se, w);
    w = w == bp ? arena + b.end : std::copy(bp, be, w);
    a.end = static_cast<std::size_t>(w - arena);
  }

  // Folds the fresh runs into the ladder, one at a time.
  void fold(run_store& s) {
    std::size_t top = s.fresh;  // runs[0..top) is the ladder
    for (std::size_t i = s.fresh; i < s.runs.size(); ++i) {
      s.runs[top++] = s.runs[i];
      while (top >= 2 &&
             2 * length(s.runs[top - 1]) >= length(s.runs[top - 2])) {
        merge(s, top - 2);
        --top;
      }
    }
    s.runs.resize(top);
  }

  // Called with del_ empty: restores "nd > 0 iff non-empty". Takes the
  // B least run entries, then moves in every entry of ins_ that belongs
  // among the B least; del_[0] only falls meanwhile, so what stays in
  // ins_ stays >= it.
  void refill() {
    const Compare& less = this->comp();
    if (stored_ > 0) {
      run_store& s = *store_;
      fold(s);
      const entry* arena = s.arena.data();
      const std::size_t k = stored_ < B ? stored_ : B;
      for (std::size_t j = k; j > 0;) {
        std::size_t best = 0;
        for (std::size_t r = 1; r < s.runs.size(); ++r) {
          if (less(arena[s.runs[r].head].first,
                   arena[s.runs[best].head].first)) {
            best = r;
          }
        }
        run& r = s.runs[best];
        del_[--j] = arena[r.head++];
        if (r.head == r.end) s.runs.erase(s.runs.begin() + best);
      }
      s.fresh = s.runs.size();
      stored_ -= k;
      nd_ = static_cast<std::uint32_t>(k);
    }
    for (std::uint32_t i = 0; i < ni_;) {
      if (nd_ < B) {
        insert_with_room(ins_[i]);
        ins_[i] = ins_[--ni_];
      } else {
        if (less(ins_[i].first, del_[0].first)) ins_[i] = replace_max(ins_[i]);
        ++i;
      }
    }
  }

  auto key_less() const {
    const Compare& less = this->comp();
    return [&less](const entry& a, const entry& b) {
      return less(a.first, b.first);
    };
  }

  std::uint32_t nd_ = 0;    // entries in del_
  std::uint32_t ni_ = 0;    // entries in ins_
  std::size_t stored_ = 0;  // live entries in the runs
  std::unique_ptr<run_store> store_;  // made by the first flush or reserve
  // Ends the header on a slot's lock line (see the line budget above).
  unsigned char pad_[40 - 2 * sizeof(std::uint32_t) - sizeof(std::size_t) -
                     sizeof(std::unique_ptr<run_store>)] = {};
  entry del_[B];
  entry ins_[B];
};

/// Selector: B-entry deletion and insertion buffers over a sorted-run
/// store (a MultiQueue slot's heap at B = 16).
template <std::size_t B = 16>
struct buffered_heap {
  template <typename Key, typename Value, typename Compare>
  using substrate = buffered_heap_t<Key, Value, Compare, B>;
};

}  // namespace pcq

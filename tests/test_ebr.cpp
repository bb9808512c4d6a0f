// util/ebr.hpp — epoch-based reclamation.
//
// Deterministic epoch mechanics: a pinned guard lets the epoch advance at
// most once (pinned == current allows e -> e+1, then blocks), nothing is
// freed before its 2-epoch grace period, and unpinning lets the backlog
// drain. Orphan path: limbo of a destroyed handle is handed to the domain
// and freed by a later scanner.
//
// Concurrent canary stress (the TSan target): writers publish nodes into
// a shared slot array, retire what they exchange out, and readers hold
// pointers across further reads — every node carries a magic word that
// the reclaimer scrambles on free, so a premature free shows up as a
// failed canary check (and as a use-after-free under TSan/ASan). The
// final accounting asserts bounded limbo growth (reclamation keeps up
// with churn) and that destruction frees every allocation exactly once.

#include "util/ebr.hpp"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "test_macros.hpp"
#include "util/in_flight.hpp"
#include "util/rng.hpp"

namespace {

constexpr std::uint64_t kAlive = 0xfeedface0badf00dull;
constexpr std::uint64_t kDead = 0xdeadbeefdeadbeefull;

std::atomic<std::uint64_t> g_allocated{0};
std::atomic<std::uint64_t> g_freed{0};

struct cnode {
  cnode* ebr_next = nullptr;
  std::uint64_t magic = kAlive;
  std::uint64_t payload = 0;
};

cnode* make_cnode(std::uint64_t payload) {
  g_allocated.fetch_add(1, std::memory_order_relaxed);
  cnode* n = new cnode;
  n->payload = payload;
  return n;
}

struct canary_traits {
  static cnode*& limbo_next(cnode* n) { return n->ebr_next; }
  static void reclaim(cnode* n) {
    CHECK(n->magic == kAlive);  // double-free / corruption detector
    n->magic = kDead;
    g_freed.fetch_add(1, std::memory_order_relaxed);
    delete n;
  }
};

using domain_t = pcq::ebr_domain<cnode, canary_traits>;

void test_epoch_mechanics() {
  domain_t domain;
  auto h1 = domain.get_handle();
  auto h2 = domain.get_handle();

  const std::uint64_t e0 = domain.epoch();
  {
    auto g1 = h1.pin();
    (void)g1;
    // h2 retires enough to trigger many scans; h1's pin caps the advance
    // at e0 + 1 (a record pinned at the current epoch permits one step,
    // then blocks), so nothing reaches its grace period and everything
    // stays in limbo.
    const std::size_t n = 8 * domain_t::kScanThreshold;
    for (std::size_t i = 0; i < n; ++i) {
      auto g2 = h2.pin();
      (void)g2;
      h2.retire(make_cnode(i));
    }
    CHECK(domain.epoch() <= e0 + 1);
    CHECK(domain.limbo_quiescent() == n);
    CHECK(domain.reclaimed_quiescent() == 0);
  }
  // Unpinned: further retires advance the epoch freely and drain the
  // backlog down to the last couple of generations.
  for (std::size_t i = 0; i < 8 * domain_t::kScanThreshold; ++i) {
    auto g2 = h2.pin();
    (void)g2;
    h2.retire(make_cnode(i));
  }
  CHECK(domain.epoch() > e0 + 1);
  CHECK(domain.reclaimed_quiescent() > 0);
  CHECK(domain.limbo_quiescent() <= 4 * domain_t::kScanThreshold);
}

void test_orphan_drain() {
  domain_t domain;
  {
    auto h = domain.get_handle();
    for (std::size_t i = 0; i < domain_t::kScanThreshold / 2; ++i) {
      auto g = h.pin();
      (void)g;
      h.retire(make_cnode(i));
    }
    // Dies with a sub-threshold limbo: handed to the domain as orphans.
  }
  CHECK(domain.limbo_quiescent() == domain_t::kScanThreshold / 2);
  // A fresh handle's retire traffic advances epochs and drains the
  // orphans once their grace period elapses.
  auto h = domain.get_handle();
  for (std::size_t i = 0; i < 8 * domain_t::kScanThreshold; ++i) {
    auto g = h.pin();
    (void)g;
    h.retire(make_cnode(i));
  }
  CHECK(domain.limbo_quiescent() <= 4 * domain_t::kScanThreshold);
}

void test_concurrent_canary() {
  const std::size_t kSlots = 256;
  const std::size_t kWriters = 2, kReaders = 2;
  const std::size_t kOpsPerWriter = 40000, kOpsPerReader = 40000;

  domain_t domain;
  std::vector<std::atomic<cnode*>> slots(kSlots);
  {
    auto h = domain.get_handle();
    for (std::size_t i = 0; i < kSlots; ++i) {
      slots[i].store(make_cnode(i), std::memory_order_release);
    }

    // Workers [0, kWriters) swap slots and retire, the rest read.
    auto worker = [&](std::size_t t) {
      auto handle = domain.get_handle();
      if (t < kWriters) {
        pcq::xoshiro256ss rng(pcq::derive_seed(0xeb, t));
        for (std::size_t i = 0; i < kOpsPerWriter; ++i) {
          cnode* fresh = make_cnode(i);
          auto guard = handle.pin();
          (void)guard;
          cnode* old = slots[rng.bounded(kSlots)].exchange(
              fresh, std::memory_order_acq_rel);
          // The exchange unlinked `old`; this thread owns it exclusively.
          CHECK(old->magic == kAlive);
          handle.retire(old);
        }
        return;
      }
      pcq::xoshiro256ss rng(pcq::derive_seed(0xeb00, t - kWriters));
      cnode* held[8];
      for (std::size_t i = 0; i < kOpsPerReader; ++i) {
        auto guard = handle.pin();
        (void)guard;
        // Hold several pointers across further loads to widen the
        // window in which a premature free would be caught.
        for (auto& p : held) {
          p = slots[rng.bounded(kSlots)].load(std::memory_order_acquire);
        }
        for (const cnode* p : held) CHECK(p->magic == kAlive);
      }
    };
    pcq::run_workers(kWriters + kReaders, worker);

    // Reclamation happened at all (an advance-never-happens bug leaves
    // EVERY retire unfreed — exactly total). No tighter mid-run bound is
    // sound here: a reader descheduled while pinned stalls advancement
    // for as long as the scheduler pleases, and on a one-core box that
    // window occasionally spans most of the run (observed leftovers from
    // 0.4% to 82% of total, same binary). The deterministic tight bound
    // comes after the pump below, once every record is idle.
    const std::uint64_t total = g_allocated.load();
    std::uint64_t unfreed = total - g_freed.load();
    CHECK(unfreed < total);
    CHECK(unfreed == kSlots + domain.limbo_quiescent());

    // Pump from the sole surviving handle: the worker records are idle,
    // so every scan advances, and the whole backlog — dead handles'
    // orphans included — drains deterministically down to the pump's own
    // last generations. This is the bounded-limbo-growth assertion:
    // independent of the 80k-node churn above.
    for (std::size_t i = 0; i < 6 * domain_t::kScanThreshold; ++i) {
      auto guard = h.pin();
      (void)guard;
      h.retire(make_cnode(i));
    }
    unfreed = g_allocated.load() - g_freed.load();
    CHECK(unfreed <= kSlots + 8 * domain_t::kScanThreshold);
    CHECK(unfreed == kSlots + domain.limbo_quiescent());

    // Drain the structure under the main handle.
    for (std::size_t i = 0; i < kSlots; ++i) {
      auto guard = h.pin();
      (void)guard;
      cnode* old = slots[i].exchange(nullptr, std::memory_order_acq_rel);
      CHECK(old->magic == kAlive);
      h.retire(old);
    }
  }
  // Domain destruction frees every remaining limbo/orphan node exactly
  // once (the canary CHECK inside reclaim guards against double frees).
}

}  // namespace

int main() {
  test_epoch_mechanics();
  test_orphan_drain();
  test_concurrent_canary();
  CHECK(g_allocated.load() == g_freed.load());  // after domain destructors
  std::printf("test_ebr OK\n");
  return 0;
}

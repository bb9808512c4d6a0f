// Event logging and exact rank replay for relaxed priority queues.
//
// Quality of a relaxed deleteMin is measured by *rank*: how many smaller
// keys were still buffered when a key was deleted (0 = a strict heap).
// Measuring this online would serialize the structure under test, so
// instead every timed operation logs (timestamp, key, kind) into a
// per-thread vector — timestamps come from the structure's global atomic
// clock, drawn at the linearization point inside the slot lock — and the
// merged timestamp order is replayed offline through a Fenwick rank
// oracle. The replay is exact and skew-free: it sees precisely the
// interleaving the locks serialized.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/fenwick.hpp"
#include "util/stats.hpp"

namespace pcq {

enum class event_kind : std::uint8_t { insert, remove };

struct mq_event {
  std::uint64_t timestamp;
  std::uint64_t key;
  event_kind kind;
};

using event_log = std::vector<mq_event>;

/// Per-thread event sink. Threads append to disjoint logs (no sharing,
/// no ordering requirements); merge order is recovered from timestamps.
class rank_recorder {
 public:
  explicit rank_recorder(std::size_t num_threads) : logs_(num_threads) {}

  void reserve(std::size_t events_per_thread) {
    for (auto& log : logs_) log.reserve(events_per_thread);
  }

  void record(std::size_t thread_id, event_kind kind, std::uint64_t timestamp,
              std::uint64_t key) {
    logs_[thread_id].push_back(mq_event{timestamp, key, kind});
  }

  event_log& log(std::size_t thread_id) { return logs_[thread_id]; }
  const std::vector<event_log>& logs() const { return logs_; }
  std::vector<event_log> take_logs() { return std::move(logs_); }

 private:
  std::vector<event_log> logs_;
};

struct replay_report {
  running_stats rank_stats;       ///< rank of every matched deletion
  std::uint64_t deletions = 0;    ///< matched deletions replayed
  std::uint64_t inversions = 0;   ///< deletions with rank > 0
  std::uint64_t unmatched = 0;    ///< removes of keys not present (bug smell)
};

/// Merges per-thread logs into one history ordered by linearization
/// timestamp — the ONE definition of replay order, shared by the
/// aggregate replay below and the trace-shaped replay in
/// sim/rank_equivalence.hpp (a diverging tie-break rule would make the
/// two replays disagree about the same history). Each log must already
/// be in timestamp order, as a thread's own tickets are, so neighbouring
/// logs are merged pairwise; the merge is stable, so equal timestamps
/// (one queue's clock never draws two) would replay in log order.
inline std::vector<mq_event> merge_events(const std::vector<event_log>& logs) {
  std::vector<std::size_t> bounds{0};
  for (const auto& log : logs) bounds.push_back(bounds.back() + log.size());
  std::vector<mq_event> merged;
  merged.reserve(bounds.back());
  for (const auto& log : logs) {
    merged.insert(merged.end(), log.begin(), log.end());
  }
  const std::size_t k = logs.size();
  for (std::size_t width = 1; width < k; width *= 2) {
    for (std::size_t i = 0; i + width < k; i += 2 * width) {
      std::inplace_merge(merged.begin() + bounds[i],
                         merged.begin() + bounds[i + width],
                         merged.begin() + bounds[std::min(i + 2 * width, k)],
                         [](const mq_event& a, const mq_event& b) {
                           return a.timestamp < b.timestamp;
                         });
    }
  }
  return merged;
}

namespace detail {

/// LSD radix sort of (key, index) pairs by key, 11 bits per pass; a pass
/// whose digit every key shares is skipped, so keys below 2^33 take at
/// most three passes. A comparison sort of the same pairs costs about
/// four times as much, and it sets the replay's cost.
inline void radix_sort_by_key(
    std::vector<std::pair<std::uint64_t, std::size_t>>& items) {
  constexpr int kBits = 11;
  constexpr std::size_t kBuckets = std::size_t{1} << kBits;
  constexpr int kPasses = (64 + kBits - 1) / kBits;
  const auto digit = [](std::uint64_t key, int pass) {
    return static_cast<std::size_t>(key >> (pass * kBits)) & (kBuckets - 1);
  };
  if (items.empty()) return;
  std::vector<std::size_t> count(kPasses * kBuckets, 0);
  for (const auto& item : items) {
    for (int p = 0; p < kPasses; ++p) {
      ++count[p * kBuckets + digit(item.first, p)];
    }
  }
  std::vector<std::pair<std::uint64_t, std::size_t>> out(items.size());
  for (int p = 0; p < kPasses; ++p) {
    std::size_t* start = count.data() + p * kBuckets;
    if (start[digit(items[0].first, p)] == items.size()) continue;
    std::size_t sum = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const std::size_t n = start[b];
      start[b] = sum;
      sum += n;
    }
    for (const auto& item : items) out[start[digit(item.first, p)]++] = item;
    items.swap(out);
  }
}

}  // namespace detail

/// Merges per-thread logs by timestamp and replays them through a rank
/// oracle over the coordinate-compressed key domain.
inline replay_report replay_ranks(const std::vector<event_log>& logs) {
  const std::vector<mq_event> merged = merge_events(logs);

  // Dense key labels from one sorted pass over (key, event index).
  std::vector<std::pair<std::uint64_t, std::size_t>> by_key(merged.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    by_key[i] = {merged[i].key, i};
  }
  detail::radix_sort_by_key(by_key);
  std::vector<std::size_t> labels(merged.size());
  std::size_t domain = 0;
  for (std::size_t j = 0; j < by_key.size(); ++j) {
    if (j == 0 || by_key[j].first != by_key[j - 1].first) ++domain;
    labels[by_key[j].second] = domain - 1;
  }

  rank_oracle oracle(domain);
  replay_report report;
  for (std::size_t i = 0; i < merged.size(); ++i) {
    const std::size_t label = labels[i];
    if (merged[i].kind == event_kind::insert) {
      oracle.insert(label);
    } else {
      if (!oracle.contains(label)) {
        ++report.unmatched;
        continue;
      }
      const std::uint64_t rank = oracle.remove(label);
      ++report.deletions;
      if (rank > 0) ++report.inversions;
      report.rank_stats.push(static_cast<double>(rank));
    }
  }
  return report;
}

}  // namespace pcq

// Probe adapters for the traced benchmark run.
//
// probe_queue<Q> models the pq handle concept (core/pq_handle.hpp) and
// probe_dispatcher<D> models the dispatcher concept (service/dispatch.hpp).
// Both forward every public call to the real object and time it with
// steady_clock. Every call lands in a per-thread histogram and busy-time
// counter; one call in kSampleEvery per thread (and every request whose
// seq is a multiple of kSampleEvery) also becomes a span for the Chrome
// trace. Nothing here touches the library: the spans sit around the calls
// into each layer, from the benchmark's side of the boundary.

#pragma once

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/pq_handle.hpp"
#include "service/workload.hpp"
#include "util/stats.hpp"

namespace pcqbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr std::uint64_t kSampleEvery = 1024;  // power of two
constexpr std::uint64_t kNoSeq = ~0ull;

/// Log-linear histogram of non-negative integers (nanoseconds): 32
/// sub-buckets per power of two, so a bucket is at most ~3% wide.
/// Quantiles interpolate inside the bucket by rank. The first kExact
/// values are also kept as they are, so rare events (failed pops) get
/// exact quantiles rather than bucket edges.
class log_histogram {
 public:
  void add(std::int64_t v) {
    const std::uint64_t x = v < 0 ? 0 : static_cast<std::uint64_t>(v);
    ++buckets_[index(x)];
    ++count_;
    if (exact_.size() < kExact) exact_.push_back(static_cast<double>(x));
  }

  void merge(const log_histogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    for (double x : other.exact_) {
      if (exact_.size() < kExact) exact_.push_back(x);
    }
  }

  std::uint64_t count() const { return count_; }

  /// Quantile p in [0, 1]; 0 when empty.
  double quantile(double p) const {
    if (count_ == 0) return 0.0;
    if (count_ == exact_.size()) return pcq::percentile(exact_, p);
    const double target = p * static_cast<double>(count_ - 1);
    double seen = 0.0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const auto c = static_cast<double>(buckets_[i]);
      if (c == 0.0) continue;
      if (target < seen + c) {
        const double lo = lower(i);
        return lo + (lower(i + 1) - lo) * (target - seen + 0.5) / c;
      }
      seen += c;
    }
    return lower(kBuckets);
  }

 private:
  static constexpr unsigned kSubBits = 5;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) * kSub;

  static std::size_t index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const unsigned msb = 63u - static_cast<unsigned>(__builtin_clzll(v));
    return (msb - kSubBits + 1) * kSub +
           static_cast<std::size_t>((v >> (msb - kSubBits)) & (kSub - 1));
  }

  static double lower(std::size_t i) {
    if (i < kSub) return static_cast<double>(i);
    const auto msb = static_cast<int>(i / kSub + kSubBits - 1);
    const auto sub = static_cast<double>(i % kSub);
    return std::ldexp(1.0, msb) + sub * std::ldexp(1.0, msb - static_cast<int>(kSubBits));
  }

  static constexpr std::size_t kExact = 4096;

  std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(kBuckets, 0);
  std::uint64_t count_ = 0;
  std::vector<double> exact_;
};

struct span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t dur_ns;
  std::uint64_t id;      ///< 0 for leaf call spans
  std::uint64_t parent;  ///< id of the enclosing trial or workload span
  std::uint64_t seq;     ///< rpc request seq, kNoSeq elsewhere
  std::size_t tid;
};

/// What one thread id recorded. Written only by the thread that owns the
/// handle with that id; read by the main thread after the workers join.
struct alignas(64) thread_stats {
  log_histogram push, pop, pop_empty;                // core layer
  log_histogram dispatch, fetch, fetch_empty, pickup, gen_lag;  // service
  std::int64_t busy_ns = 0;  ///< time inside probed queue calls
  std::uint64_t calls = 0;
  std::uint64_t pops = 0, pop_fails = 0;
  double size_sum = 0.0;     ///< sampled queue sizes
  std::uint64_t size_samples = 0;
  std::vector<span> spans;
};

/// Recorder shared by all probes of one run: per-thread stats plus the
/// workload and trial spans the main thread opens.
class probe {
 public:
  explicit probe(std::size_t max_threads) : threads_(max_threads) {}

  probe(const probe&) = delete;
  probe& operator=(const probe&) = delete;

  thread_stats& slot(std::size_t tid) {
    if (tid >= threads_.size()) throw std::out_of_range("probe: thread id");
    return threads_[tid];
  }
  std::size_t slots() const { return threads_.size(); }

  /// Clears the per-thread statistics (not the spans) before a trial.
  void reset_stats() {
    for (thread_stats& t : threads_) {
      std::vector<span> keep = std::move(t.spans);
      t = thread_stats{};
      t.spans = std::move(keep);
    }
  }

  /// Opens a span on the main thread; children recorded until close()
  /// name it as their parent. Returns the span's index for close().
  std::size_t open(const char* name) {
    const std::uint64_t id = ++next_id_;
    main_spans_.push_back(span{name, now_ns(), 0, id, current(), kNoSeq, kMainTid});
    current_.store(id, std::memory_order_relaxed);
    return main_spans_.size() - 1;
  }
  void close(std::size_t index) {
    span& s = main_spans_[index];
    s.dur_ns = now_ns() - s.start_ns;
    current_.store(s.parent, std::memory_order_relaxed);
  }
  std::uint64_t current() const {
    return current_.load(std::memory_order_relaxed);
  }

  void add_span(std::size_t tid, const char* name, std::int64_t start,
                std::int64_t dur, std::uint64_t seq) {
    slot(tid).spans.push_back(span{name, start, dur, 0, current(), seq, tid});
  }

  /// Writes every span in Chrome trace format ("X" complete events,
  /// microseconds). Returns false if the file could not be written.
  bool write_chrome_trace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::int64_t origin = main_spans_.empty() ? 0 : main_spans_.front().start_ns;
    std::fprintf(f, "{\"otherData\":{\"sample_every\":%llu},\"traceEvents\":[",
                 static_cast<unsigned long long>(kSampleEvery));
    bool first = true;
    const auto emit = [&](const span& s) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu",
                   first ? "" : ",", s.name, s.tid,
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.dur_ns) / 1e3,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent));
      if (s.seq != kNoSeq) {
        std::fprintf(f, ",\"seq\":%llu", static_cast<unsigned long long>(s.seq));
      }
      std::fputs("}}", f);
      first = false;
    };
    for (const span& s : main_spans_) emit(s);
    for (const thread_stats& t : threads_) {
      for (const span& s : t.spans) emit(s);
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  static constexpr std::size_t kMainTid = 1000;
  std::vector<thread_stats> threads_;
  std::vector<span> main_spans_;
  std::uint64_t next_id_ = 0;
  std::atomic<std::uint64_t> current_{0};  ///< set by the main thread
};

/// pq-concept adapter: forwards to Queue and times every handle call.
template <typename Queue>
class probe_queue {
 public:
  using entry = typename Queue::entry;
  using key_type = typename entry::first_type;
  using value_type = typename entry::second_type;

  probe_queue(Queue& queue, probe& recorder) : queue_(queue), probe_(recorder) {}

  std::size_t size() const { return queue_.size(); }

  class handle {
   public:
    handle(handle&&) = default;
    handle(const handle&) = delete;
    handle& operator=(const handle&) = delete;

    void push(const key_type& key, const value_type& value) {
      const std::int64_t t0 = now_ns();
      inner_.push(key, value);
      done(stats().push, "core.push", t0);
    }

    void push_batch(const entry* items, std::size_t n) {
      const std::int64_t t0 = now_ns();
      inner_.push_batch(items, n);
      done(stats().push, "core.push_batch", t0);
    }

    bool try_pop(key_type& key, value_type& value) {
      const std::int64_t t0 = now_ns();
      const bool ok = inner_.try_pop(key, value);
      count_pop(ok);
      done(ok ? stats().pop : stats().pop_empty,
           ok ? "core.pop" : "core.pop_empty", t0);
      return ok;
    }

    std::size_t try_pop_batch(entry* out, std::size_t max_n) {
      const std::int64_t t0 = now_ns();
      const std::size_t got = inner_.try_pop_batch(out, max_n);
      count_pop(got > 0);
      done(got > 0 ? stats().pop : stats().pop_empty,
           got > 0 ? "core.pop_batch" : "core.pop_empty", t0);
      return got;
    }

   private:
    friend class probe_queue;
    handle(pcq::pq_handle_t<Queue>&& inner, probe_queue* owner, std::size_t tid)
        : inner_(std::move(inner)), owner_(owner), tid_(tid) {}

    thread_stats& stats() { return owner_->probe_.slot(tid_); }
    void count_pop(bool ok) {
      thread_stats& s = stats();
      ++s.pops;
      if (!ok) ++s.pop_fails;
    }
    /// Files the call under `hist`; every kSampleEvery calls also records
    /// a span and samples the queue size.
    void done(log_histogram& hist, const char* name, std::int64_t t0) {
      const std::int64_t dur = now_ns() - t0;
      thread_stats& s = stats();
      hist.add(dur);
      s.busy_ns += dur;
      if ((++s.calls & (kSampleEvery - 1)) == 0) {
        s.size_sum += static_cast<double>(owner_->queue_.size());
        ++s.size_samples;
        owner_->probe_.add_span(tid_, name, t0, dur, kNoSeq);
      }
    }

    pcq::pq_handle_t<Queue> inner_;
    probe_queue* owner_;
    std::size_t tid_;
  };

  handle get_handle(std::size_t tid) {
    return handle(queue_.get_handle(tid), this, tid);
  }

 private:
  Queue& queue_;
  probe& probe_;
};

/// Dispatcher-concept adapter: forwards to Dispatcher, times dispatch and
/// fetch, and measures pickup (fetch end minus dispatch start) per
/// request. Spans are sampled by request seq, so the dispatch and fetch
/// spans of one request are kept or dropped together and share its seq.
template <typename Dispatcher>
class probe_dispatcher {
 public:
  /// `dispatch_tid` is the stats slot of the arrival thread; `requests`
  /// bounds the seqs the trace can carry; `epoch_ns` is the instant trace
  /// time 0 maps to, for the generator-lag measurement.
  probe_dispatcher(Dispatcher& inner, probe& recorder, std::size_t dispatch_tid,
                   std::size_t requests, std::int64_t epoch_ns)
      : inner_(inner),
        probe_(recorder),
        dispatch_tid_(dispatch_tid),
        dispatched_at_(requests, 0),
        epoch_ns_(epoch_ns) {}

  void dispatch(const pcq::service::request& r) {
    const std::int64_t t0 = now_ns();
    // Written before the request becomes fetchable; the queue's
    // release/acquire pair orders it before the fetching worker's read.
    dispatched_at_.at(r.seq) = t0;
    inner_.dispatch(r);
    const std::int64_t dur = now_ns() - t0;
    thread_stats& s = probe_.slot(dispatch_tid_);
    s.dispatch.add(dur);
    s.gen_lag.add(t0 - epoch_ns_ - static_cast<std::int64_t>(r.arrival * 1e9));
    if (r.seq % kSampleEvery == 0) {
      probe_.add_span(dispatch_tid_, "service.dispatch", t0, dur, r.seq);
    }
  }

  bool fetch(std::size_t worker, std::uint64_t& seq) {
    const std::int64_t t0 = now_ns();
    const bool ok = inner_.fetch(worker, seq);
    const std::int64_t t1 = now_ns();
    thread_stats& s = probe_.slot(worker);
    if (!ok) {
      s.fetch_empty.add(t1 - t0);
      return false;
    }
    s.fetch.add(t1 - t0);
    s.pickup.add(t1 - dispatched_at_.at(seq));
    if (seq % kSampleEvery == 0) {
      probe_.add_span(worker, "service.fetch", t0, t1 - t0, seq);
    }
    return true;
  }

  void seal() { inner_.seal(); }
  std::size_t backlog() const { return inner_.backlog(); }
  std::size_t reclaim(std::size_t worker, std::vector<std::uint64_t>& out) {
    return inner_.reclaim(worker, out);
  }

 private:
  Dispatcher& inner_;
  probe& probe_;
  std::size_t dispatch_tid_;
  std::vector<std::int64_t> dispatched_at_;
  std::int64_t epoch_ns_;
};

}  // namespace pcqbench

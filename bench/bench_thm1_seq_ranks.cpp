// THM1 — the sequential label process behind Theorem 1, Theorem 6 and
// Appendix A (sim/label_process.hpp), one bench for the three claims.
// Theorem 1 on the (1+beta) process:
//   (A) mean rank = O(n):          mean/n is a stable constant across n
//   (B) max rank  = O(n log n):    max/(n ln n) is a stable constant
//   (C) mean rank = O(n/beta^2):   behavior across beta at fixed n
//   (D) robustness to bias gamma (Section 3): bounded for beta = Omega(gamma)
//   (E) flatness in t: windowed mean does not grow with time
//   (F) the power of choice: mean rank vs d at n = 64 falls steeply from
//       1 to 2 choices and mildly after; the Karp-Zhang own-queue
//       policy [20], the no-choice ancestor, for contrast
// THM6: the single-choice (beta = 0) process diverges — its late-window
// rank grows as sqrt(t n log n) for t >= n log n — while the two-choice
// process stays flat at O(n).
// APXA: with ROUND-ROBIN insertions the two-choice removal process maps
// onto classic two-choice balls into bins (virtual bins = per-queue
// removal counts; removing the lower label = filling the less-loaded
// virtual bin). Both gaps (max above average) are O(log n) and flat in
// t; the single-choice columns grow as sqrt(t) in both worlds. The
// classic process is exponential_process with no bias (gamma = 0).
//
// The paper proves these bounds hold for ANY time t; the tables make the
// constants visible.
//
// Emits BENCH_thm1.json: x-axis = THM6's t sweep, one series per THM6
// process, "mops" = n / late-window mean rank (higher is better); every
// other table's rows sit in the top-level "tables" object. The process
// is a pure function of its seeds, so CI gates the whole file exactly
// (cmp against bench/baselines/BENCH_thm1.baseline.json).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "benchlib/bench_env.hpp"
#include "benchlib/json_writer.hpp"
#include "benchlib/table_printer.hpp"
#include "sim/exponential_process.hpp"
#include "sim/label_process.hpp"

namespace {

using namespace pcq::bench;
using namespace pcq::sim;

process_config bins(std::size_t n, double beta) {
  process_config cfg;
  cfg.num_bins = n;
  cfg.beta = beta;
  return cfg;
}

/// Runs `cfg` for `removals` removals interleaved with 2 * removals
/// insertions.
label_process run_process(process_config cfg, std::size_t removals,
                          std::uint64_t seed) {
  cfg.num_labels = 2 * removals;
  cfg.num_removals = removals;
  cfg.seed = seed;
  label_process p(cfg);
  p.run();
  return p;
}

/// Mean rank over the LAST window (i.e., "the cost at time ~t").
double late_mean(const cost_trace& trace) {
  const auto& wins = trace.windows();
  if (wins.empty()) return trace.mean_rank();
  return wins.back().mean_rank;
}

double late_max(const cost_trace& trace) {
  const auto& wins = trace.windows();
  if (wins.empty()) return static_cast<double>(trace.max_rank());
  return static_cast<double>(wins.back().max_rank);
}

/// Max-above-average of the removal-count vector of a round-robin label
/// process after `removals` steps.
double label_process_gap(std::size_t n, double beta, std::size_t removals,
                         std::uint64_t seed) {
  process_config cfg = bins(n, beta);
  cfg.order = insertion_order::round_robin;
  const label_process p = run_process(cfg, removals, seed);
  std::uint64_t mx = 0;
  for (std::size_t i = 0; i < n; ++i) {
    mx = std::max(mx, p.removals_from(i));
  }
  return static_cast<double>(mx) -
         static_cast<double>(removals) / static_cast<double>(n);
}

/// Max-above-average of the bin loads of the (1+beta)-choice
/// balls-into-bins process after `balls` balls.
double balls_gap(std::size_t n, double beta, std::uint64_t balls,
                 std::uint64_t seed) {
  exp_process_config cfg;
  cfg.num_bins = n;
  cfg.beta = beta;
  cfg.num_steps = balls;
  cfg.sample_every = 0;
  cfg.seed = seed;
  exponential_process p(cfg);
  p.run();
  const auto& loads = p.loads();
  return static_cast<double>(*std::max_element(loads.begin(), loads.end())) -
         static_cast<double>(balls) / static_cast<double>(n);
}

/// A printed table that keeps its rows for the artifact.
class recorded_table {
 public:
  recorded_table(const char* name, std::vector<std::string> columns)
      : name_(name), columns_(columns), printer_(std::move(columns)) {}

  void row(std::vector<double> values) {
    printer_.row(values);
    rows_.push_back(std::move(values));
  }

  void write(json_writer& json) const {
    json.key(name_).begin_object();
    json.key("columns").begin_array();
    for (const std::string& c : columns_) json.value(c);
    json.end_array();
    json.key("rows").begin_array();
    for (const auto& r : rows_) {
      json.begin_array();
      for (const double v : r) json.value(v);
      json.end_array();
    }
    json.end_array().end_object();
  }

 private:
  const char* name_;
  std::vector<std::string> columns_;
  table_printer printer_;
  std::vector<std::vector<double>> rows_;
};

}  // namespace

int main() {
  const std::size_t removals = scaled<std::size_t>(1u << 17, 1u << 21);
  const std::size_t choice_removals = scaled<std::size_t>(1u << 17, 1u << 20);

  print_header("THM1-A/B: rank scaling with n (beta = 1)",
               "mean/n and max/(n ln n) should be stable constants");
  recorded_table table_ab(
      "thm1_ab", {"n", "mean_rank", "mean/n", "max_rank", "max/(n*ln n)"});
  for (const std::size_t n : {8, 16, 32, 64, 128, 256, 512}) {
    const cost_trace trace =
        run_process(bins(n, 1.0), removals, 42 + n).costs();
    const double mean = trace.mean_rank();
    const double mx = static_cast<double>(trace.max_rank());
    table_ab.row({static_cast<double>(n), mean,
                  mean / static_cast<double>(n), mx,
                  mx / (static_cast<double>(n) * std::log(double(n)))});
  }

  print_header("THM1-C: rank scaling with beta (n = 64)",
               "theory bound O(n/beta^2); measured growth is closer to "
               "linear in 1/beta (the paper conjectures linear)");
  recorded_table table_c("thm1_c", {"beta", "mean_rank", "mean*beta^2/n",
                                    "mean*beta/n", "max_rank"});
  for (const double beta : {0.125, 0.25, 0.5, 0.75, 1.0}) {
    const std::size_t n = 64;
    const cost_trace trace = run_process(bins(n, beta), removals, 77).costs();
    const double mean = trace.mean_rank();
    table_c.row({beta, mean, mean * beta * beta / static_cast<double>(n),
                 mean * beta / static_cast<double>(n),
                 static_cast<double>(trace.max_rank())});
  }

  print_header("THM1-D: robustness to insertion bias gamma (n = 64, "
               "beta = 1)",
               "Section 3: bounds survive bias up to a constant");
  recorded_table table_d("thm1_d",
                         {"gamma", "mean_rank", "mean/n", "max_rank"});
  for (const double gamma : {0.0, 0.125, 0.25, 0.5, 0.75}) {
    process_config cfg = bins(64, 1.0);
    cfg.gamma = gamma;
    cfg.bias = gamma > 0 ? bias_kind::linear_ramp : bias_kind::none;
    const cost_trace trace = run_process(cfg, removals, 99).costs();
    table_d.row({gamma, trace.mean_rank(), trace.mean_rank() / 64.0,
                 static_cast<double>(trace.max_rank())});
  }

  print_header("THM1-E: flatness over time (n = 64)",
               "windowed mean rank at increasing t; two-choice stays flat "
               "(any-t guarantee)");
  process_config windowed = bins(64, 1.0);
  windowed.window = removals / 16;
  const cost_trace windowed_trace = run_process(windowed, removals, 11).costs();
  recorded_table table_e("thm1_e", {"step", "window_mean", "window_max"});
  for (const auto& w : windowed_trace.windows()) {
    table_e.row({static_cast<double>(w.first_step), w.mean_rank,
                 static_cast<double>(w.max_rank)});
  }

  print_header("THM1-F: d-choice in the sequential process (n = 64)",
               "mean rank vs number of choices; Karp-Zhang own-queue row "
               "for contrast");
  recorded_table table_f("thm1_f", {"choices", "mean_rank", "mean/n"});
  for (const std::size_t choices : {1u, 2u, 3u, 4u, 8u, 16u}) {
    process_config cfg = bins(64, 1.0);
    cfg.choices = choices;
    const double mean =
        run_process(cfg, choice_removals, 40 + choices).costs().mean_rank();
    table_f.row({static_cast<double>(choices), mean, mean / 64.0});
  }
  {
    process_config cfg = bins(64, 1.0);
    cfg.removal = removal_policy::own_queue_round_robin;
    const double kz = run_process(cfg, choice_removals, 60).costs().mean_rank();
    std::printf("[karp-zhang own-queue round-robin]\n");
    table_f.row({0.0, kz, kz / 64.0});
  }

  const std::size_t n = 64;
  const std::size_t thm6_max_pow = scaled<std::size_t>(19, 22);
  print_header("THM6: single-choice divergence vs two-choice flatness "
               "(n = 64)",
               "single-choice late-window cost should track "
               "sqrt(t n ln n); two-choice stays O(n)");
  table_printer thm6({"t", "single_mean", "single/sqrt(tnlnn)",
                      "single_max", "two_choice_mean"});
  std::vector<std::size_t> ts;
  std::vector<double> single_mean, single_norm, single_max, two_mean;
  for (std::size_t p = 14; p <= thm6_max_pow; ++p) {
    const std::size_t t = 1u << p;
    process_config single_cfg = bins(n, 0.0);
    single_cfg.window = std::max<std::size_t>(1, t / 8);
    process_config two_cfg = single_cfg;
    two_cfg.beta = 1.0;
    const cost_trace single = run_process(single_cfg, t, 3 * p).costs();
    const cost_trace two = run_process(two_cfg, t, 5 * p).costs();
    const double norm = std::sqrt(static_cast<double>(t) *
                                  static_cast<double>(n) *
                                  std::log(static_cast<double>(n)));
    ts.push_back(t);
    single_mean.push_back(late_mean(single));
    single_norm.push_back(late_mean(single) / norm);
    single_max.push_back(late_max(single));
    two_mean.push_back(late_mean(two));
    thm6.row({static_cast<double>(t), single_mean.back(), single_norm.back(),
              single_max.back(), two_mean.back()});
  }
  std::printf(
      "\nexpected shape: single/sqrt(tnlnn) converges to a constant (the "
      "sqrt law);\ntwo_choice_mean stays near O(n) at every t.\n");

  const std::size_t apxa_max_pow = scaled<std::size_t>(18, 21);
  print_header("APXA: round-robin reduction to balls-into-bins (n = 64)",
               "gap = max removals/loads above average; label-process gap "
               "should match the classic two-choice gap (both O(log n))");
  recorded_table table_apxa("apxa", {"t", "label_2choice", "balls_2choice",
                                     "label_1choice", "balls_1choice"});
  for (std::size_t p = 14; p <= apxa_max_pow; ++p) {
    const std::size_t t = 1u << p;
    table_apxa.row({static_cast<double>(t),
                    label_process_gap(n, 1.0, t, 10 + p),
                    balls_gap(n, 1.0, t, 20 + p),
                    label_process_gap(n, 0.0, t, 30 + p),
                    balls_gap(n, 0.0, t, 40 + p)});
  }
  std::printf(
      "\nexpected: two-choice columns agree and stay ~O(log n) flat in t; "
      "single-choice columns agree and grow ~sqrt(t/n * log n).\n");

  const std::string json_path = json_artifact_path("BENCH_thm1.json");
  json_writer json(json_path);
  json.begin_object()
      .kv("bench", "thm1_seq_ranks")
      .kv("unit",
          "mops = n / late-window mean rank (higher is better); x-axis = "
          "THM6's removal count t")
      .kv("full_scale", full_scale())
      .kv("num_bins", n)
      .kv("removals", removals)
      .kv("choice_removals", choice_removals);
  json.key("tables").begin_object();
  for (const recorded_table* table :
       {&table_ab, &table_c, &table_d, &table_e, &table_f, &table_apxa}) {
    table->write(json);
  }
  json.end_object();
  json.key("threads").begin_array();
  for (const std::size_t t : ts) json.value(t);
  json.end_array();
  const auto emit = [&json](const char* key, const std::vector<double>& v) {
    json.key(key).begin_array();
    for (const double x : v) json.value(x);
    json.end_array();
  };
  const auto rank_quality = [n](std::vector<double> means) {
    for (double& m : means) m = static_cast<double>(n) / m;
    return means;
  };
  json.key("series").begin_array();
  json.begin_object().kv("name", "single_b0");
  emit("mops", rank_quality(single_mean));
  emit("late_mean", single_mean);
  emit("late_mean_per_sqrt_tnlnn", single_norm);
  emit("late_max", single_max);
  json.end_object();
  json.begin_object().kv("name", "two_choice_b1");
  emit("mops", rank_quality(two_mean));
  emit("late_mean", two_mean);
  json.end_object();
  json.end_array().end_object();
  std::printf("\n%s %s\n", json.ok() ? "wrote" : "FAILED to write",
              json_path.c_str());
  return 0;
}

// THM3 — the exponential-potential process (sim/exponential_process.hpp)
// behind Theorem 3's supermartingale argument: Gamma(t) = sum_i
// e^{alpha y_i} + e^{-alpha y_i} over the per-queue deviations y_i from
// the exact mean. The claim: for beta = Omega(gamma), E[Gamma(t)] <=
// C * q at EVERY t — so the Gamma(t)/q columns sit flat and O(1) — which
// bounds the total divergence by O(q log q) (max deviation O(log q) /
// alpha per queue). The beta = 0 columns are the divergent contrast:
// sqrt(t) drift unbiased, linear drift biased.
//
// Three tables: the potential trace over time per (beta, gamma) case;
// final max-deviation / gap against the O(log q)/alpha yardstick; and a
// q-sweep showing Gamma/q and gap/ln q flat in q (the O(q log q) shape).
//
// Emits BENCH_thm3.json: x-axis = checkpoint index, one series per
// case, "mops" = balance = 2q / Gamma in (0, 1] (higher is better,
// 1.0 = perfectly balanced; finite even when Gamma overflows). The
// process is a pure function of its seed, so CI gates the whole file
// byte for byte: cmp against bench/baselines/BENCH_thm3.baseline.json.

#include <cmath>
#include <cstddef>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "benchlib/bench_env.hpp"
#include "benchlib/json_writer.hpp"
#include "benchlib/table_printer.hpp"
#include "sim/exponential_process.hpp"

namespace {

using namespace pcq::bench;
using namespace pcq::sim;

struct case_def {
  const char* name;  ///< pot_*: bounded cases; single_*: divergent contrast
  double beta;
  double gamma;
  bias_kind bias;
};

exponential_process run_case(const case_def& c, std::size_t q,
                             std::size_t steps, double alpha,
                             std::uint64_t seed) {
  exp_process_config cfg;
  cfg.num_bins = q;
  cfg.beta = c.beta;
  cfg.choices = 2;
  cfg.gamma = c.gamma;
  cfg.bias = c.bias;
  cfg.alpha = alpha;
  cfg.num_steps = steps;
  cfg.sample_every = steps / 8;
  cfg.seed = seed;
  exponential_process p(cfg);
  p.run();
  return p;
}

double balance(const exponential_process& p, const potential_sample& s) {
  return std::isfinite(s.potential) && s.potential > 0.0
             ? p.balanced_potential() / s.potential
             : 0.0;
}

}  // namespace

int main() {
  const std::size_t q = 64;
  const double alpha = 0.25;
  const std::size_t steps = scaled<std::size_t>(1u << 17, 1u << 21);

  const case_def cases[] = {
      {"pot_b1.0_g0", 1.0, 0.0, bias_kind::none},
      {"pot_b0.5_g0", 0.5, 0.0, bias_kind::none},
      {"pot_b0.25_g0", 0.25, 0.0, bias_kind::none},
      {"pot_b0.6_g0.3ramp", 0.6, 0.3, bias_kind::linear_ramp},
      {"pot_b0.6_g0.3blk", 0.6, 0.3, bias_kind::two_block},
      {"single_b0_g0", 0.0, 0.0, bias_kind::none},
      {"single_b0_g0.3blk", 0.0, 0.3, bias_kind::two_block},
  };

  print_header(
      "THM3a: potential Gamma(t)/q over time (q = 64, alpha = 0.25)",
      "flat O(1) columns confirm E[Gamma] <= C*q for beta = Omega(gamma); "
      "the single_* (beta = 0) columns diverge; 'inf' means the "
      "potential overflowed double range — divergence made vivid");

  std::vector<exponential_process> runs;
  std::vector<std::string> columns{"step"};
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    runs.push_back(run_case(cases[i], q, steps, alpha, 3000 + i));
    columns.emplace_back(cases[i].name);
  }

  table_printer trace_table(columns);
  const std::size_t checkpoints = runs.front().samples().size();
  for (std::size_t r = 0; r < checkpoints; ++r) {
    std::vector<double> row{
        static_cast<double>(runs.front().samples()[r].step)};
    for (const auto& p : runs) {
      row.push_back(p.samples()[r].potential / static_cast<double>(q));
    }
    trace_table.row(row);
  }

  print_header(
      "THM3b: final divergence vs the O(log q) yardstick",
      "bounded cases keep max_dev within a small multiple of "
      "ln(q)/alpha; divergent cases leave it far behind");
  std::printf("ln(q)/alpha = %.2f\n", std::log(static_cast<double>(q)) / alpha);
  table_printer dev_table({"case", "max_dev", "gap", "balance"});
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& last = runs[i].samples().back();
    dev_table.row({static_cast<double>(i), last.max_dev,
                   static_cast<double>(last.gap),
                   balance(runs[i], last)});
  }

  print_header(
      "THM3c: q-sweep at beta = 1 — Gamma/q and gap/ln q flat in q",
      "the O(q log q) shape: potential linear in q, max deviation "
      "logarithmic");
  table_printer q_table({"q", "Gamma/q", "max_dev", "gap/ln_q"});
  for (const std::size_t qq : {16u, 64u, 256u, 1024u}) {
    const case_def two_choice{"", 1.0, 0.0, bias_kind::none};
    const auto p = run_case(two_choice, qq, steps, alpha, 4000 + qq);
    const auto& last = p.samples().back();
    q_table.row({static_cast<double>(qq),
                 last.potential / static_cast<double>(qq), last.max_dev,
                 static_cast<double>(last.gap) /
                     std::log(static_cast<double>(qq))});
  }

  const std::string json_path = json_artifact_path("BENCH_thm3.json");
  json_writer json(json_path);
  json.begin_object()
      .kv("bench", "thm3_potential")
      .kv("unit",
          "mops = balance = 2q / Gamma in (0,1] (higher is better); "
          "x-axis = potential checkpoint index")
      .kv("full_scale", full_scale())
      .kv("num_bins", q)
      .kv("alpha", alpha)
      .kv("num_steps", steps);
  json.key("threads").begin_array();
  for (std::size_t r = 0; r < checkpoints; ++r) json.value(r + 1);
  json.end_array();
  json.key("series").begin_array();
  for (std::size_t i = 0; i < runs.size(); ++i) {
    json.begin_object().kv("name", cases[i].name);
    json.key("mops").begin_array();
    for (const auto& s : runs[i].samples()) {
      json.value(balance(runs[i], s));
    }
    json.end_array();
    json.key("max_dev").begin_array();
    for (const auto& s : runs[i].samples()) json.value(s.max_dev);
    json.end_array();
    json.key("gap").begin_array();
    for (const auto& s : runs[i].samples()) {
      json.value(static_cast<std::uint64_t>(s.gap));
    }
    json.end_array().end_object();
  }
  json.end_array().end_object();
  std::printf("\n%s %s\n", json.ok() ? "wrote" : "FAILED to write",
              json_path.c_str());

  std::printf("expected: pot_* columns flat and O(1) over time and across "
              "q; single_* columns grow without bound.\n");
  return 0;
}

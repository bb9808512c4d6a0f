// THM1 — measures Theorem 1 on the sequential (1+beta) process:
//   (A) mean rank = O(n):          mean/n is a stable constant across n
//   (B) max rank  = O(n log n):    max/(n ln n) is a stable constant
//   (C) mean rank = O(n/beta^2):   behavior across beta at fixed n
//   (D) robustness to bias gamma (Section 3): bounded for beta = Omega(gamma)
//   (E) flatness in t: windowed mean does not grow with time
//   (F) the power of choice: mean rank vs d at n = 64 falls steeply from
//       1 to 2 choices and mildly after; the Karp-Zhang own-queue
//       policy [20], the no-choice ancestor, for contrast
//
// The paper proves these bounds hold for ANY time t; the tables make the
// constants visible.

#include <cmath>
#include <cstdio>
#include <vector>

#include "benchlib/bench_env.hpp"
#include "benchlib/table_printer.hpp"
#include "sim/label_process.hpp"

namespace {

using namespace pcq::bench;
using namespace pcq::sim;

cost_trace run_process(std::size_t n, double beta, double gamma,
                       std::size_t removals, std::uint64_t seed,
                       std::size_t window = 0, std::size_t choices = 2,
                       removal_policy removal = removal_policy::choice) {
  process_config cfg;
  cfg.num_bins = n;
  cfg.beta = beta;
  cfg.gamma = gamma;
  cfg.bias = gamma > 0 ? bias_kind::linear_ramp : bias_kind::none;
  cfg.choices = choices;
  cfg.removal = removal;
  cfg.num_labels = 2 * removals;
  cfg.num_removals = removals;
  cfg.seed = seed;
  cfg.window = window;
  label_process p(cfg);
  p.run();
  return p.costs();
}

}  // namespace

int main() {
  const std::size_t removals = scaled<std::size_t>(1u << 17, 1u << 21);

  print_header("THM1-A/B: rank scaling with n (beta = 1)",
               "mean/n and max/(n ln n) should be stable constants");
  {
    table_printer table(
        {"n", "mean_rank", "mean/n", "max_rank", "max/(n*ln n)"});
    for (const std::size_t n : {8, 16, 32, 64, 128, 256, 512}) {
      const auto trace = run_process(n, 1.0, 0.0, removals, 42 + n);
      const double mean = trace.mean_rank();
      const double mx = static_cast<double>(trace.max_rank());
      table.row({static_cast<double>(n), mean,
                 mean / static_cast<double>(n), mx,
                 mx / (static_cast<double>(n) * std::log(double(n)))});
    }
  }

  print_header("THM1-C: rank scaling with beta (n = 64)",
               "theory bound O(n/beta^2); measured growth is closer to "
               "linear in 1/beta (the paper conjectures linear)");
  {
    table_printer table({"beta", "mean_rank", "mean*beta^2/n", "mean*beta/n",
                         "max_rank"});
    const std::size_t n = 64;
    for (const double beta : {0.125, 0.25, 0.5, 0.75, 1.0}) {
      const auto trace = run_process(n, beta, 0.0, removals, 77);
      const double mean = trace.mean_rank();
      table.row({beta, mean, mean * beta * beta / static_cast<double>(n),
                 mean * beta / static_cast<double>(n),
                 static_cast<double>(trace.max_rank())});
    }
  }

  print_header("THM1-D: robustness to insertion bias gamma (n = 64, "
               "beta = 1)",
               "Section 3: bounds survive bias up to a constant");
  {
    table_printer table({"gamma", "mean_rank", "mean/n", "max_rank"});
    for (const double gamma : {0.0, 0.125, 0.25, 0.5, 0.75}) {
      const auto trace = run_process(64, 1.0, gamma, removals, 99);
      table.row({gamma, trace.mean_rank(), trace.mean_rank() / 64.0,
                 static_cast<double>(trace.max_rank())});
    }
  }

  print_header("THM1-E: flatness over time (n = 64)",
               "windowed mean rank at increasing t; two-choice stays flat "
               "(any-t guarantee)");
  {
    const std::size_t window = removals / 16;
    const auto trace = run_process(64, 1.0, 0.0, removals, 11, window);
    table_printer table({"step", "window_mean", "window_max"});
    for (const auto& w : trace.windows()) {
      table.row({static_cast<double>(w.first_step), w.mean_rank,
                 static_cast<double>(w.max_rank)});
    }
  }

  print_header("THM1-F: d-choice in the sequential process (n = 64)",
               "mean rank vs number of choices; Karp-Zhang own-queue row "
               "for contrast");
  {
    const std::size_t choice_removals =
        scaled<std::size_t>(1u << 17, 1u << 20);
    table_printer table({"choices", "mean_rank", "mean/n"});
    for (const std::size_t d : {1u, 2u, 3u, 4u, 8u, 16u}) {
      const double mean =
          run_process(64, 1.0, 0.0, choice_removals, 40 + d, 0, d)
              .mean_rank();
      table.row({static_cast<double>(d), mean, mean / 64.0});
    }
    const double kz =
        run_process(64, 1.0, 0.0, choice_removals, 60, 0, 2,
                    removal_policy::own_queue_round_robin)
            .mean_rank();
    std::printf("[karp-zhang own-queue round-robin]\n");
    table.row({0.0, kz, kz / 64.0});
  }
  return 0;
}

// Table 1, row "Ulam Distance (Theorem 4)":
//   1+eps approximation, 2 rounds, Õ_eps(n^{1-x}) memory per machine,
//   Õ_eps(n^x) machines, Õ_eps(n) total running time.
//
// We sweep n, measure (rounds, machines, max memory, total work,
// approximation ratio) of the MPC pipeline, and fit log-log slopes against
// the theoretical exponents.  Absolute constants are implementation
// artefacts; the *exponents* and the approximation band are the claim.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/theory.hpp"
#include "core/workload.hpp"
#include "seq/ulam.hpp"
#include "ulam_mpc/solver.hpp"

int main() {
  using namespace mpcsd;
  bench::banner("Table 1 / row 'Ulam Distance, Theorem 4'",
                "1+eps approx, 2 rounds, mem/machine ~ n^{1-x}, machines ~ n^x, "
                "total work ~ n (up to polylog, poly(1/eps))");

  const double x = 1.0 / 3;
  const double eps = 0.5;
  std::printf("x = %.3f, eps = %.2f, planted distance ~ n^{0.55}\n\n", x, eps);

  bench::row({"n", "exact", "mpc", "ratio", "rounds", "machines", "maxmemB",
              "total_work", "crit_path", "violations"}, 12);

  std::vector<double> ns;
  std::vector<double> machines;
  std::vector<double> memory;
  std::vector<double> work;
  double worst_ratio = 1.0;
  std::size_t violations = 0;
  bool two_rounds = true;

  for (const std::int64_t n : {2000, 4000, 8000, 16000, 32000}) {
    const auto k = static_cast<std::int64_t>(std::pow(static_cast<double>(n), 0.55));
    const auto s = core::random_permutation(n, static_cast<std::uint64_t>(n));
    const auto t = core::plant_edits(s, k, static_cast<std::uint64_t>(n) + 1, true).text;
    const auto exact = seq::ulam_distance(s, t);

    ulam_mpc::UlamMpcParams params;
    params.x = x;
    params.epsilon = eps;
    params.seed = 7;
    const auto result = ulam_mpc::ulam_distance_mpc(s, t, params);

    const double ratio = exact == 0
                             ? 1.0
                             : static_cast<double>(result.distance) /
                                   static_cast<double>(exact);
    worst_ratio = std::max(worst_ratio, ratio);
    violations += result.trace.memory_violations();
    two_rounds = two_rounds && result.trace.round_count() == 2;

    ns.push_back(static_cast<double>(n));
    machines.push_back(static_cast<double>(result.trace.max_machines()));
    memory.push_back(static_cast<double>(result.trace.max_machine_memory()));
    work.push_back(static_cast<double>(result.trace.total_work()));

    bench::row({bench::fmt_int(n), bench::fmt_int(exact),
                bench::fmt_int(result.distance), bench::fmt(ratio),
                bench::fmt_int(static_cast<long long>(result.trace.round_count())),
                bench::fmt_int(static_cast<long long>(result.trace.max_machines())),
                bench::fmt_int(static_cast<long long>(result.trace.max_machine_memory())),
                bench::fmt_int(static_cast<long long>(result.trace.total_work())),
                bench::fmt_int(static_cast<long long>(result.trace.critical_path_work())),
                bench::fmt_int(static_cast<long long>(result.trace.memory_violations()))},
               12);
  }

  const double machines_slope = core::fit_exponent(ns, machines);
  const double memory_slope = core::fit_exponent(ns, memory);
  const double work_slope = core::fit_exponent(ns, work);

  std::printf("\nexponent fits (measured vs paper):\n");
  std::printf("  machines : %.3f vs %.3f (n^x)\n", machines_slope,
              core::ulam_machines_exponent(x));
  std::printf("  memory   : %.3f vs %.3f (n^{1-x})\n", memory_slope, 1.0 - x);
  std::printf("  work     : %.3f vs %.3f (Õ(n); polylog shows as slight excess)\n",
              work_slope, core::ulam_work_exponent(x));
  std::printf("  worst approximation ratio: %.4f (bound 1+eps = %.2f)\n",
              worst_ratio, 1.0 + eps);

  const bool ok = two_rounds && worst_ratio <= 1.0 + eps + 1e-9 &&
                  violations == 0 && std::abs(machines_slope - x) < 0.15 &&
                  work_slope < 1.45;
  bench::footer(ok,
                "rounds==2 always; machine/memory/work exponents track n^x, "
                "n^{1-x}, ~n; ratio within 1+eps");
  return ok ? 0 : 1;
}

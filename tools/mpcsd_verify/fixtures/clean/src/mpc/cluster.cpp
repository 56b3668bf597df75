// Clean fixture: mirrors src/mpc/cluster.cpp, part of the observability
// spine — it may stamp RoundReport::wall_seconds and read host clocks on
// the host side (outside machine bodies).  Must produce no findings.
#include <chrono>

namespace mpc {

void finish_round(RoundReport& report,
                  std::chrono::steady_clock::time_point t0) {
  const auto t1 = std::chrono::steady_clock::now();
  report.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace mpc

// Fixture: writing RoundReport::wall_seconds outside the observability
// spine (src/obs/, cluster.cpp, stats.cpp).

namespace mpcsd {

void stamp_report(mpc::RoundReport& report, double seconds) {
  report.wall_seconds = seconds;  // mpcsd-expect: conf-wall-seconds
}

}  // namespace mpcsd

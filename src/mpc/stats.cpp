#include "mpc/stats.hpp"

#include <algorithm>
#include <sstream>
#include <string_view>

#include "common/hash.hpp"

namespace mpcsd::mpc {

std::size_t ExecutionTrace::max_machines() const noexcept {
  std::size_t best = 0;
  for (const auto& r : rounds_) best = std::max(best, r.machines);
  return best;
}

std::uint64_t ExecutionTrace::max_machine_memory() const noexcept {
  std::uint64_t best = 0;
  for (const auto& r : rounds_) best = std::max(best, r.max_machine_memory);
  return best;
}

std::uint64_t ExecutionTrace::total_work() const noexcept {
  std::uint64_t total = 0;
  for (const auto& r : rounds_) total += r.total_work;
  return total;
}

std::uint64_t ExecutionTrace::critical_path_work() const noexcept {
  std::uint64_t total = 0;
  for (const auto& r : rounds_) total += r.max_machine_work;
  return total;
}

std::uint64_t ExecutionTrace::total_comm_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const auto& r : rounds_) total += r.total_comm_bytes;
  return total;
}

std::size_t ExecutionTrace::memory_violations() const noexcept {
  std::size_t total = 0;
  for (const auto& r : rounds_) total += r.memory_violations;
  return total;
}

std::uint64_t ExecutionTrace::structural_hash() const noexcept {
  std::uint64_t h = hash_mix(kFnvOffset, rounds_.size());
  for (const RoundReport& r : rounds_) {
    h = hash_bytes(r.label.data(), r.label.size(), h);
    h = hash_mix(h, r.machines);
    h = hash_mix(h, r.max_machine_memory);
    h = hash_mix(h, r.total_comm_bytes);
    h = hash_mix(h, r.total_input_bytes);
    h = hash_mix(h, r.total_work);
    h = hash_mix(h, r.max_machine_work);
    h = hash_mix(h, r.memory_violations);
  }
  return h;
}

std::vector<RoundReport> attribute_round(const std::string& label,
                                         const std::vector<MachineReport>& reports,
                                         const std::vector<std::uint32_t>& owner,
                                         const std::vector<std::uint64_t>& caps) {
  std::vector<RoundReport> split(caps.size());
  for (RoundReport& rr : split) rr.label = label;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const MachineReport& m = reports[i];
    RoundReport& rr = split.at(owner[i]);
    ++rr.machines;
    rr.max_machine_memory = std::max(rr.max_machine_memory, m.memory_footprint());
    rr.total_comm_bytes += m.output_bytes;
    rr.total_input_bytes += m.input_bytes;
    rr.total_work += m.work;
    rr.max_machine_work = std::max(rr.max_machine_work, m.work);
    if (m.memory_footprint() > caps[owner[i]]) ++rr.memory_violations;
  }
  return split;
}

void ExecutionTrace::append_sequential(const ExecutionTrace& other) {
  rounds_.insert(rounds_.end(), other.rounds_.begin(), other.rounds_.end());
}

namespace {

/// True when `part` is one of the `|`-separated parts of `joined`.
bool has_part(std::string_view joined, std::string_view part) {
  for (std::size_t begin = 0;;) {
    const std::size_t end = joined.find('|', begin);
    if (joined.substr(begin, end - begin) == part) return true;
    if (end == std::string_view::npos) return false;
    begin = end + 1;
  }
}

}  // namespace

void ExecutionTrace::merge_parallel(const ExecutionTrace& other) {
  if (other.rounds_.size() > rounds_.size()) {
    rounds_.resize(other.rounds_.size());
  }
  for (std::size_t i = 0; i < other.rounds_.size(); ++i) {
    RoundReport& mine = rounds_[i];
    const RoundReport& theirs = other.rounds_[i];
    if (mine.label.empty()) {
      mine.label = theirs.label;
    } else if (!theirs.label.empty() && !has_part(mine.label, theirs.label)) {
      mine.label += "|" + theirs.label;
    }
    mine.machines += theirs.machines;
    mine.max_machine_memory = std::max(mine.max_machine_memory, theirs.max_machine_memory);
    mine.total_comm_bytes += theirs.total_comm_bytes;
    mine.total_input_bytes += theirs.total_input_bytes;
    mine.total_work += theirs.total_work;
    mine.max_machine_work = std::max(mine.max_machine_work, theirs.max_machine_work);
    mine.wall_seconds = std::max(mine.wall_seconds, theirs.wall_seconds);
    mine.driver_seconds = std::max(mine.driver_seconds, theirs.driver_seconds);
    mine.memory_violations += theirs.memory_violations;
  }
}

std::string ExecutionTrace::to_csv() const {
  std::ostringstream os;
  os << "round,label,machines,max_machine_memory,total_comm_bytes,"
        "total_input_bytes,total_work,max_machine_work,wall_seconds,"
        "memory_violations\n";
  for (std::size_t i = 0; i < rounds_.size(); ++i) {
    const RoundReport& r = rounds_[i];
    os << (i + 1) << ',' << r.label << ',' << r.machines << ','
       << r.max_machine_memory << ',' << r.total_comm_bytes << ','
       << r.total_input_bytes << ',' << r.total_work << ','
       << r.max_machine_work << ',' << r.wall_seconds << ','
       << r.memory_violations << '\n';
  }
  return os.str();
}

std::string ExecutionTrace::summary() const {
  std::ostringstream os;
  os << "rounds=" << round_count() << " max_machines=" << max_machines()
     << " max_machine_memory=" << max_machine_memory()
     << "B total_work=" << total_work()
     << " critical_path_work=" << critical_path_work()
     << " comm=" << total_comm_bytes() << "B";
  if (memory_violations() > 0) {
    os << " MEMORY_VIOLATIONS=" << memory_violations();
  }
  os << '\n';
  for (std::size_t i = 0; i < rounds_.size(); ++i) {
    const RoundReport& r = rounds_[i];
    os << "  round " << (i + 1) << " [" << r.label << "]: machines=" << r.machines
       << " max_mem=" << r.max_machine_memory << "B work=" << r.total_work
       << " max_work=" << r.max_machine_work << " comm=" << r.total_comm_bytes
       << "B\n";
  }
  return os.str();
}

}  // namespace mpcsd::mpc

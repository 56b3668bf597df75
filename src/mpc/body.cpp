#include "mpc/body.hpp"

#include <mutex>

namespace mpcsd::mpc {

namespace {

struct BodyTable {
  std::mutex mu;
  std::vector<BodyEntry> entries;
};

/// Function-local so namespace-scope bodies in any TU may register during
/// static initialisation.
BodyTable& body_table() {
  static BodyTable table;
  return table;
}

}  // namespace

std::uint32_t register_body(const BodyEntry& entry) {
  BodyTable& table = body_table();
  const std::lock_guard<std::mutex> lock(table.mu);
  for (std::size_t i = 0; i < table.entries.size(); ++i) {
    const BodyEntry& row = table.entries[i];
    if (row.fn == entry.fn && row.call == entry.call) {
      return static_cast<std::uint32_t>(i);
    }
  }
  table.entries.push_back(entry);
  return static_cast<std::uint32_t>(table.entries.size() - 1);
}

std::vector<BodyEntry> body_table_snapshot() {
  BodyTable& table = body_table();
  const std::lock_guard<std::mutex> lock(table.mu);
  return table.entries;
}

}  // namespace mpcsd::mpc

// Clean fixture: the idioms the analyzer must NOT flag.
//   - lambda capture lists (the compiler, not the analyzer, keeps captures
//     out of round bodies)
//   - unordered_map *lookup* (find/count) without iteration
//   - keyword-looking text inside strings and comments (grep's blind spot)
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace mpc {

// A comment may discuss reinterpret_cast or fork() freely.
void value_captures(int machines, std::uint64_t seed) {
  const std::uint64_t salt = seed * 2654435761u;
  run_machines(machines, [seed, &salt](MachineContext& ctx) {
    std::unordered_map<std::uint64_t, std::uint64_t> cache;
    cache[seed] = salt;
    const auto it = cache.find(static_cast<std::uint64_t>(ctx.machine_id));
    if (it != cache.end()) ctx.charge_work(it->second);
    const std::string log = "never call fork() or mmap() here";
    ctx.charge_work(log.size());
  });
}

void stage_body(const std::vector<std::uint32_t>& inputs, std::uint32_t bias) {
  run_stage<std::uint32_t>(inputs, [bias](StageContext<std::uint32_t>& stage) {
    stage.emit(0, bias);
  });
}

}  // namespace mpc

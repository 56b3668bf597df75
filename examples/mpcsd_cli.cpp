// mpcsd_cli — command-line front end for the library.
//
//   mpcsd_cli ulam <file_a> <file_b> [--x 0.33] [--eps 0.5] [--seed 7]
//   mpcsd_cli edit <file_a> <file_b> [--x 0.25] [--eps 1.0] [--exact-unit]
//   mpcsd_cli batch <ulam|edit> <pairs_file> [--x X] [--eps E] [--seed S]
//                    [--mode {parallel,throughput}] [--router {off,auto,always-seq}]
//   mpcsd_cli demo [--n 20000] [--edits 300]
//
// Files are read as whitespace-separated integer symbols if every token is
// numeric, otherwise byte-wise as text.  `ulam` requires repeat-free
// inputs.  Prints the approximate distance, the guarantee band, and the
// MPC trace.
//
// `batch` reads one TAB-separated (s, t) pair per line, runs every pair in
// a single shared plan execution (core::distance_batch), and prints one
// JSON object per query with its distance, attributed rounds, work, and
// communication bytes.  Malformed lines abort with a nonzero exit.
// `--trace-out <file> [--trace-format {jsonl,chrome}]` (any solver mode)
// attaches the observability recorder to every round, stage, solver, and
// batch pass and writes the event stream to the file: `chrome` (the
// default) produces a Chrome trace-event JSON openable in chrome://tracing
// or https://ui.perfetto.dev, `jsonl` one JSON object per event per line.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "core/api.hpp"
#include "core/tsv.hpp"
#include "mpc/backend.hpp"
#include "obs/recorder.hpp"
#include "obs/sinks.hpp"

namespace {

using namespace mpcsd;

std::string load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "error: cannot open '%s'\n", path.c_str());
    std::exit(2);
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

SymString load_symbols(const std::string& path) {
  return core::parse_symbols(load_file(path));
}

double flag_value(int argc, char** argv, const char* name, double fallback) {
  for (int i = 0; i < argc - 1; ++i) {
    if (std::strcmp(argv[i], name) == 0) return std::atof(argv[i + 1]);
  }
  return fallback;
}

bool has_flag(int argc, char** argv, const char* name) {
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

const char* flag_string(int argc, char** argv, const char* name,
                        const char* fallback) {
  for (int i = 0; i < argc - 1; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

/// Parses `--backend {thread,process}` (default: auto, which honours
/// the MPCSD_BACKEND environment variable).  Exits with a message on an
/// unrecognized value.
mpc::BackendKind flag_backend(int argc, char** argv) {
  const char* value = flag_string(argc, argv, "--backend", nullptr);
  if (value == nullptr) return mpc::BackendKind::kAuto;
  const auto kind = mpc::backend_from_string(value);
  if (!kind.has_value()) {
    std::fprintf(stderr,
                 "error: --backend must be 'thread' or 'process', got '%s'\n",
                 value);
    std::exit(2);
  }
  return *kind;
}

/// Parses `--router {off,auto,always-seq}` (default: resolve the
/// MPCSD_ROUTER environment variable; unset means off).  Exits with a
/// message on an unrecognized value.
core::RouterPolicy flag_router(int argc, char** argv) {
  const char* value = flag_string(argc, argv, "--router", nullptr);
  if (value == nullptr) return core::RouterPolicy::kDefault;
  const auto policy = core::router_policy_from_string(value);
  if (!policy.has_value()) {
    std::fprintf(
        stderr,
        "error: --router must be 'off', 'auto', or 'always-seq', got '%s'\n",
        value);
    std::exit(2);
  }
  return *policy;
}

/// Parses `--mode {parallel,throughput}` for batch runs (default:
/// parallel, the paper-literal semantics).
core::BatchMode flag_batch_mode(int argc, char** argv) {
  const char* value = flag_string(argc, argv, "--mode", nullptr);
  if (value == nullptr) return core::BatchMode::kParallelGuess;
  if (std::strcmp(value, "parallel") == 0) return core::BatchMode::kParallelGuess;
  if (std::strcmp(value, "throughput") == 0) return core::BatchMode::kThroughput;
  std::fprintf(stderr,
               "error: --mode must be 'parallel' or 'throughput', got '%s'\n",
               value);
  std::exit(2);
}

/// The CLI's trace attachment: parses `--trace-out` / `--trace-format`,
/// owns the recorder + sink for the run, and writes the file at the end.
class TraceOutput {
 public:
  /// Returns false on an invalid --trace-format value.
  bool init(int argc, char** argv) {
    const char* path = flag_string(argc, argv, "--trace-out", nullptr);
    if (path == nullptr) return true;
    path_ = path;
    const std::string format = flag_string(argc, argv, "--trace-format", "chrome");
    if (format == "chrome") {
      chrome_ = std::make_shared<obs::ChromeTraceSink>();
      recorder_.add_sink(chrome_);
    } else if (format == "jsonl") {
      jsonl_ = std::make_shared<obs::JsonlSink>();
      recorder_.add_sink(jsonl_);
    } else {
      std::fprintf(stderr,
                   "error: --trace-format must be 'jsonl' or 'chrome', got '%s'\n",
                   format.c_str());
      return false;
    }
    return true;
  }

  /// The recorder to hand to solver/batch params (null when not tracing).
  [[nodiscard]] obs::Recorder* recorder() noexcept {
    return path_.empty() ? nullptr : &recorder_;
  }

  /// Writes the collected trace; returns false (with a message) on IO error.
  bool write() {
    if (path_.empty()) return true;
    recorder_.flush();
    const bool ok = chrome_ != nullptr ? chrome_->write_file(path_)
                                       : jsonl_->write_file(path_);
    if (!ok) {
      std::fprintf(stderr, "error: cannot write trace to '%s'\n", path_.c_str());
      return false;
    }
    const std::size_t events =
        chrome_ != nullptr ? chrome_->event_count() : jsonl_->event_count();
    std::fprintf(stderr, "trace: %zu events written to %s\n", events,
                 path_.c_str());
    return true;
  }

 private:
  obs::Recorder recorder_;
  std::shared_ptr<obs::ChromeTraceSink> chrome_;
  std::shared_ptr<obs::JsonlSink> jsonl_;
  std::string path_;
};

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  mpcsd_cli ulam <file_a> <file_b> [--x X] [--eps E] [--seed S]\n"
               "  mpcsd_cli edit <file_a> <file_b> [--x X] [--eps E] [--exact-unit]\n"
               "  mpcsd_cli batch <ulam|edit> <pairs_file> [--x X] [--eps E] [--seed S]\n"
               "      [--mode {parallel,throughput}] [--router {off,auto,always-seq}]\n"
               "  mpcsd_cli demo [--n N] [--edits K]\n"
               "common flags:\n"
               "  --backend {thread,process}   execution backend for the machine\n"
               "      bodies (default: thread, or the MPCSD_BACKEND env var);\n"
               "      'process' runs bodies in forked, memory-isolated workers\n"
               "  --router {off,auto,always-seq}   query router for edit batches in\n"
               "      throughput mode (default: off, or the MPCSD_ROUTER env var);\n"
               "      'auto' retires near-duplicates on the sequential fast path\n"
               "  --trace-out <file> [--trace-format {jsonl,chrome}]   write an\n"
               "      observability trace (chrome format opens in ui.perfetto.dev)\n");
  return 2;
}

// `batch` subcommand: TAB-separated (s, t) per line -> JSON lines.
int run_batch(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string algo = argv[2];
  core::BatchRequest request;
  if (algo == "ulam") {
    request.algorithm = core::BatchAlgorithm::kUlam;
    request.ulam.x = flag_value(argc, argv, "--x", request.ulam.x);
    request.ulam.epsilon = flag_value(argc, argv, "--eps", request.ulam.epsilon);
    request.ulam.seed =
        static_cast<std::uint64_t>(flag_value(argc, argv, "--seed", 7));
    request.ulam.backend = flag_backend(argc, argv);
  } else if (algo == "edit") {
    request.algorithm = core::BatchAlgorithm::kEdit;
    request.edit.x = flag_value(argc, argv, "--x", request.edit.x);
    request.edit.epsilon = flag_value(argc, argv, "--eps", request.edit.epsilon);
    request.edit.seed =
        static_cast<std::uint64_t>(flag_value(argc, argv, "--seed", 7));
    request.edit.backend = flag_backend(argc, argv);
    request.mode = flag_batch_mode(argc, argv);
    request.router = flag_router(argc, argv);
  } else {
    std::fprintf(stderr, "error: batch algorithm must be 'ulam' or 'edit'\n");
    return 2;
  }

  const std::string path = argv[3];
  core::TsvError parse_error;
  auto queries =
      core::parse_batch_tsv(load_file(path), request.algorithm, &parse_error);
  if (!queries.has_value()) {
    if (parse_error.line == 0) {
      std::fprintf(stderr, "error: '%s': %s\n", path.c_str(),
                   parse_error.message.c_str());
    } else {
      std::fprintf(stderr, "error: %s:%zu: %s\n", path.c_str(),
                   parse_error.line, parse_error.message.c_str());
    }
    return 2;
  }
  request.queries = std::move(*queries);

  TraceOutput trace;
  if (!trace.init(argc, argv)) return 2;
  request.recorder = trace.recorder();

  const auto result = core::distance_batch(request);
  for (std::size_t q = 0; q < result.queries.size(); ++q) {
    const auto& qr = result.queries[q];
    std::uint64_t work = 0;
    std::uint64_t comm = 0;
    for (const auto& round : qr.trace.rounds()) {
      work += round.total_work;
      comm += round.total_comm_bytes;
    }
    std::printf("{\"query\":%zu,\"distance\":%lld,\"accepted_guess\":%lld,"
                "\"rounds\":%zu,\"work\":%llu,\"comm_bytes\":%llu,"
                "\"memory_cap_bytes\":%llu}\n",
                q, static_cast<long long>(qr.distance),
                static_cast<long long>(qr.accepted_guess),
                qr.trace.round_count(),
                static_cast<unsigned long long>(work),
                static_cast<unsigned long long>(comm),
                static_cast<unsigned long long>(qr.memory_cap_bytes));
  }
  std::fprintf(stderr, "batch: %zu queries in %zu shared rounds\n",
               result.queries.size(), result.trace.round_count());
  return trace.write() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];

  if (mode == "demo") {
    const auto n = static_cast<std::int64_t>(flag_value(argc, argv, "--n", 20000));
    const auto k = static_cast<std::int64_t>(flag_value(argc, argv, "--edits", 300));
    const auto s = core::random_permutation(n, 1);
    const auto t = core::plant_edits(s, k, 2, true).text;
    ulam_mpc::UlamMpcParams demo_params;
    demo_params.backend = flag_backend(argc, argv);
    const auto result = ulam_mpc::ulam_distance_mpc(s, t, demo_params);
    const auto exact = seq::ulam_distance(s, t);
    std::printf("demo: n=%lld planted=%lld exact=%lld mpc=%lld\n%s",
                static_cast<long long>(n), static_cast<long long>(k),
                static_cast<long long>(exact), static_cast<long long>(result.distance),
                result.trace.summary().c_str());
    return 0;
  }

  if (mode == "batch") return run_batch(argc, argv);

  if (argc < 4) return usage();
  const auto a = load_symbols(argv[2]);
  const auto b = load_symbols(argv[3]);
  std::printf("|a| = %zu, |b| = %zu\n", a.size(), b.size());

  if (mode == "ulam") {
    if (!seq::is_repeat_free(a) || !seq::is_repeat_free(b)) {
      std::fprintf(stderr, "error: ulam mode requires repeat-free inputs\n");
      return 2;
    }
    ulam_mpc::UlamMpcParams params;
    params.x = flag_value(argc, argv, "--x", params.x);
    params.epsilon = flag_value(argc, argv, "--eps", params.epsilon);
    params.seed = static_cast<std::uint64_t>(flag_value(argc, argv, "--seed", 7));
    params.backend = flag_backend(argc, argv);
    TraceOutput trace;
    if (!trace.init(argc, argv)) return 2;
    params.recorder = trace.recorder();
    const auto result = ulam_mpc::ulam_distance_mpc(a, b, params);
    std::printf("ulam distance (1+eps approx): %lld  [guarantee: within %.2fx whp]\n",
                static_cast<long long>(result.distance), 1.0 + params.epsilon);
    std::printf("%s", result.trace.summary().c_str());
    return trace.write() ? 0 : 1;
  }

  if (mode == "edit") {
    edit_mpc::EditMpcParams params;
    params.x = flag_value(argc, argv, "--x", params.x);
    params.epsilon = flag_value(argc, argv, "--eps", params.epsilon);
    if (has_flag(argc, argv, "--exact-unit")) {
      params.unit = edit_mpc::DistanceUnit::kExactBanded;
    }
    params.backend = flag_backend(argc, argv);
    TraceOutput trace;
    if (!trace.init(argc, argv)) return 2;
    params.recorder = trace.recorder();
    const auto result = edit_mpc::edit_distance_mpc(a, b, params);
    std::printf("edit distance (3+eps approx): %lld  [guarantee: within %.2fx]\n",
                static_cast<long long>(result.distance), 3.0 + params.epsilon);
    std::printf("accepted guess %lld after %zu guesses\n",
                static_cast<long long>(result.accepted_guess), result.guesses_run);
    std::printf("%s", result.trace.summary().c_str());
    return trace.write() ? 0 : 1;
  }
  return usage();
}

// perfbench_run: one benchmark operation per process, driven by run.py.
//
//   perfbench_run rep    --workload W --seed S --threads N --scratch DIR
//                        [--traced]
//       One repetition (set-up, run, output checks); prints one JSON line.
//   perfbench_run anchor --workload async_straggler --seed S --threads N
//       The sync-policy anchor; exits 3 if the event engine diverged.
//   perfbench_run build-info
//       Compiler, flags and the instruction-set paths compiled in.
//
// Any failed check or exception exits non-zero with the reason on stderr;
// run.py counts that as one failed operation.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.h"

namespace {

void print_json_string(const char* key, const std::string& value) {
  std::printf("\"%s\": \"", key);
  for (const char c : value) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::printf("\"");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_run rep|anchor|build-info --workload W "
               "--seed S --threads N [--scratch DIR] [--traced]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  perfbench::Options opt;
  bool traced = false;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--traced") {
      traced = true;
    } else if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--threads" && has_value) {
      opt.threads = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--scratch" && has_value) {
      opt.scratch = argv[++i];
    } else {
      return usage();
    }
  }

  if (mode == "build-info") {
    std::printf("{");
    print_json_string("compiler", PERFBENCH_COMPILER);
    std::printf(", ");
    print_json_string("flags", PERFBENCH_FLAGS);
#if defined(__AVX2__)
    std::printf(", \"avx2\": true");
#else
    std::printf(", \"avx2\": false");
#endif
#if defined(__FMA__)
    std::printf(", \"fma\": true}\n");
#else
    std::printf(", \"fma\": false}\n");
#endif
    return 0;
  }
  if (opt.workload.empty() || opt.threads == 0) return usage();

  try {
    if (mode == "anchor") {
      const bool ok = perfbench::async_sync_anchor(opt);
      std::printf("{\"anchor_identical\": %s}\n", ok ? "true" : "false");
      return ok ? 0 : 3;
    }
    if (mode != "rep") return usage();
    const perfbench::RepResult r = perfbench::repetition(opt, traced);
    std::printf("{\"setup_s\": %.17g, \"run_s\": %.17g, \"run_cpu_s\": %.17g, "
                "\"samples\": %llu, \"final_loss\": %.17g, \"sim_s\": %.17g, "
                "\"peak_rss_mb\": %.17g, ",
                r.setup_s, r.run_s, r.run_cpu_s,
                static_cast<unsigned long long>(r.samples), r.final_loss,
                r.sim_s, r.peak_rss_mb);
    print_json_string("hash", r.hash);
    std::printf(", \"layers\": {");
    const char* sep = "";
    for (const auto& [name, value] : r.layers) {
      std::printf("%s\"%s\": %.17g", sep, name.c_str(), value);
      sep = ", ";
    }
    std::printf("}}\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_run: %s\n", e.what());
    return 1;
  }
}

// perfbench: host-time benchmark of the simulator.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--size full|tiny] [--spans-out PATH]
//
// Repeats the workload (fresh inputs from the seed, fresh simulators) a
// fixed number of times, S divided by the workload's nominal repeat time
// and at least three, and prints one JSON object as the last line of
// stdout: the end-to-end metrics with --trace 0, the per-layer metrics of
// one traced run with --trace 1. Every repeat checks its outputs; a repeat
// whose checks fail, or whose deterministic fingerprint differs from the
// first repeat's, counts as failed.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench.hpp"
#include "obs/event_profile.hpp"

namespace {

using perfbench::Metrics;

double sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", vu.first);
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           vu.second + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--size full|tiny] [--spans-out PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  perfbench::Size size = perfbench::Size::kFull;
  std::string spans_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      trace = std::atoi(val.c_str());
    } else if (key == "--size") {
      if (val != "full" && val != "tiny") return usage();
      size = val == "tiny" ? perfbench::Size::kTiny : perfbench::Size::kFull;
    } else if (key == "--spans-out") {
      spans_out = val;
    } else {
      return usage();
    }
  }
  perfbench::WorkloadSpec spec;
  if (argc % 2 != 1 || !perfbench::make_spec(workload, seed, size, &spec)) {
    return usage();
  }

  // Timed repeats: tracing off, no sinks.
  scion::obs::EventProfiler::global().set_enabled(false);
  constexpr std::size_t kMinRepeats = 3;
  constexpr std::size_t kSetupsPerRepeat = 5;
  // A traced run spends about half its budget on untraced repeats (the
  // trace-overhead base) and the rest on the traced run and kernel replay.
  const double budget = trace == 1 ? seconds / 2 : seconds;
  // The repeat count depends only on the arguments, never on how fast the
  // code runs: the minimum over more repeats reads lower, so a count taken
  // from elapsed time would favour faster code beyond its real gain.
  const std::size_t repeat_count = std::max(
      kMinRepeats, static_cast<std::size_t>(budget / spec.nominal_repeat_s));
  std::vector<perfbench::RepeatResult> repeats;
  while (repeats.size() < repeat_count) {
    repeats.push_back(perfbench::run_timed(spec, kSetupsPerRepeat));
    const perfbench::RepeatResult& r = repeats.back();
    std::fprintf(stderr,
                 "perfbench: repeat %zu: setup %.6f s, wall %.6f s, %llu "
                 "events\n",
                 repeats.size(), r.setup_s.back(), sum(r.chunk_wall_s),
                 static_cast<unsigned long long>(r.events));
  }

  const perfbench::RepeatResult& first = repeats.front();
  std::size_t failed = 0;
  for (const perfbench::RepeatResult& r : repeats) {
    bool ok = r.checks.ok();
    for (const std::string& f : r.checks.failures) {
      std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
    }
    if (!(r.fingerprint == first.fingerprint) ||
        r.chunk_wall_s.size() != first.chunk_wall_s.size()) {
      std::fprintf(stderr, "perfbench: fingerprint differs across repeats: %s\n",
                   r.fingerprint.diff(first.fingerprint).c_str());
      ok = false;
    }
    if (!ok) ++failed;
  }
  std::size_t attempted = repeats.size();

  // The host's speed swings by a fifth within seconds (other tenants), so
  // a repeat's wall time mostly measures how much of it ran in a slow
  // phase. The runs are deterministic, so each virtual-time chunk does the
  // same work in every repeat: wall_s and cpu_s sum, chunk by chunk, the
  // fastest repeat, and setup_s is the fastest construction.
  std::vector<double> wall_min = first.chunk_wall_s;
  std::vector<double> cpu_min = first.chunk_cpu_s;
  std::vector<double> setup, repeat_wall;
  for (const perfbench::RepeatResult& r : repeats) {
    setup.insert(setup.end(), r.setup_s.begin(), r.setup_s.end());
    repeat_wall.push_back(sum(r.chunk_wall_s));
    if (r.chunk_wall_s.size() != wall_min.size()) continue;
    for (std::size_t k = 0; k < wall_min.size(); ++k) {
      wall_min[k] = std::min(wall_min[k], r.chunk_wall_s[k]);
      cpu_min[k] = std::min(cpu_min[k], r.chunk_cpu_s[k]);
    }
  }
  const double wall_s = sum(wall_min);
  std::fprintf(stderr,
               "perfbench: %zu repeats, %zu chunks: wall_s %.6f s (repeat "
               "median %.6f s)\n",
               repeats.size(), wall_min.size(), wall_s, median(repeat_wall));

  Metrics metrics;
  if (trace == 0) {
    metrics = {
        {"wall_s", {wall_s, "s"}},
        {"cpu_s", {sum(cpu_min), "s"}},
        {"setup_s", {*std::min_element(setup.begin(), setup.end()), "s"}},
        {"ns_per_event",
         {wall_s * 1e9 / static_cast<double>(first.events), "ns"}},
        {"peak_rss_mb", {perfbench::peak_rss_mb(), "MiB"}},
    };
  } else {
    perfbench::TracedResult t =
        perfbench::run_traced(spec, median(repeat_wall), first.events,
                              spans_out);
    ++attempted;
    bool ok = t.checks.ok();
    for (const std::string& f : t.checks.failures) {
      std::fprintf(stderr, "perfbench: traced check failed: %s\n", f.c_str());
    }
    if (!(t.fingerprint == first.fingerprint)) {
      std::fprintf(stderr,
                   "perfbench: traced driver diverged from the untraced "
                   "run: %s\n",
                   t.fingerprint.diff(first.fingerprint).c_str());
      ok = false;
    }
    if (!ok) ++failed;
    metrics = std::move(t.metrics);
  }
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}

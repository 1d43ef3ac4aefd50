// Shared plumbing of the EMAP benchmark: command-line arguments, the
// seeded input generators, the cold MDB set-up, an in-memory span
// recorder, and the result record every workload returns.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "emap/core/config.hpp"
#include "emap/mdb/store.hpp"
#include "emap/synth/generator.hpp"

namespace perfbench {

/// Recordings per standard corpus: the paper-size MDB (8190 signal-sets).
inline constexpr std::size_t kPerCorpus = 26;
/// Sampling rate and length of every monitored input (Table I protocol).
inline constexpr double kInputSeconds = 300.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Directory for the result record and the span file.
  std::string out_dir = ".bench_out";
};

/// Worker threads the benchmark may use: 4, capped at the host's cores.
std::size_t bench_threads();

/// Deterministic 64-bit mix of the run seed with stream coordinates, so
/// every input of a run derives from --seed alone.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a,
                       std::uint64_t b = 0, std::uint64_t c = 0);

/// One monitored input ("patient" or control), 300 s at 256 Hz, onset at
/// 240 s; make_eval_input draws its archetype from the seed.
emap::synth::Recording make_input(emap::synth::AnomalyClass cls,
                                  std::uint64_t seed);

/// One monitored input of class `cls` and archetype `archetype` (mod the
/// archetypes per class), with the instance variability of
/// make_eval_input and its noise seeded from `seed`.
emap::synth::Recording make_stratified_input(emap::synth::AnomalyClass cls,
                                             std::size_t archetype,
                                             std::uint64_t seed);

/// Size of a stratified cohort: every (class, archetype) pair once.
inline constexpr std::size_t kCohortSize = 16;

/// The i-th input of a stratified cohort: class i % 4 (seizure,
/// encephalopathy, stroke, normal), archetype i / 4.  A
/// cohort of kCohortSize inputs has the same make-up on every seed, so
/// the seed moves the noise and not the mix of phenotypes, whose costs
/// differ widely.
emap::synth::Recording make_cohort_input(std::size_t index,
                                         std::uint64_t seed);

using Clock = std::chrono::steady_clock;
double seconds_since(Clock::time_point start);

/// Logs to stderr that a phase of the run has ended, with the seconds
/// since the process started (where a run's wall time goes).
void log_phase(const char* workload, const char* phase);

/// Spans recorded from the benchmark's own code around each call into a
/// layer.  Kept in memory; written as a Chrome trace at the end of the
/// run.  A disabled recorder records nothing and costs one branch.
class SpanRecorder {
 public:
  struct Span {
    const char* name;  ///< layer call, e.g. "tracker.step"
    std::uint64_t id;
    std::uint64_t parent;  ///< 0 = root
    std::uint64_t op;      ///< operation (session, query, window) id
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  explicit SpanRecorder(bool enabled);

  /// RAII span; nests under the innermost open span of this recorder.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* name, std::uint64_t op = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    std::size_t index_ = 0;
    bool active_ = false;
  };

  /// Durations (seconds) of every span with this name.
  std::vector<double> durations(const std::string& name) const;
  /// Writes the spans as Chrome trace events (chrome://tracing, Perfetto).
  void write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::uint64_t next_id_ = 1;
};

/// The cold set-up every workload starts with: corpus generation (input
/// generation, untimed) and the MdbBuilder ingest (timed).
struct MdbSetup {
  emap::mdb::MdbStore store;
  double ingest_s = 0.0;
  double store_mb = 0.0;
};
MdbSetup build_mdb(std::size_t per_corpus, SpanRecorder& spans);

/// Peak resident set of this process in MiB.
double peak_rss_mb();

/// Median and linear-interpolated percentile of a sample (0 when empty).
double median(std::vector<double> values);
double percentile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);

/// What one workload run hands back to main().
struct RunRecord {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Violations found by the output checks (empty = correct); the first
  /// 50 are kept.
  std::vector<std::string> violations;
  /// name -> (value, unit)
  std::map<std::string, std::pair<double, std::string>> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void add_violations(const std::vector<std::string>& found,
                      const std::string& context);
};

RunRecord run_evaluation(const Args& args);
RunRecord run_fleet(const Args& args);
RunRecord run_edge(const Args& args);

}  // namespace perfbench

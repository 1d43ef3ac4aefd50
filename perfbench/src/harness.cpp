#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cmath>
#include <fstream>
#include <thread>

#include "emap/mdb/builder.hpp"
#include "emap/synth/corpus.hpp"

namespace perfbench {

std::size_t bench_threads() {
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  return std::min<std::size_t>(4, cores);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                       std::uint64_t c) {
  // splitmix64 finalizer over the folded coordinates.
  std::uint64_t z = seed;
  for (std::uint64_t part : {a, b, c}) {
    z += 0x9E3779B97F4A7C15ULL + part;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
  }
  return z;
}

emap::synth::Recording make_input(emap::synth::AnomalyClass cls,
                                  std::uint64_t seed) {
  emap::synth::EvalInputSpec spec;
  spec.cls = cls;
  spec.seed = seed;
  spec.duration_sec = kInputSeconds;
  return emap::synth::make_eval_input(spec);
}

emap::synth::Recording make_stratified_input(emap::synth::AnomalyClass cls,
                                             std::size_t archetype,
                                             std::uint64_t seed) {
  emap::synth::RecordingSpec spec;
  spec.cls = cls;
  spec.archetype = static_cast<std::uint32_t>(
      archetype % emap::synth::kArchetypesPerClass);
  spec.fs = 256.0;
  spec.duration_sec = kInputSeconds;
  spec.onset_sec = emap::synth::EvalInputSpec{}.onset_sec;
  const auto variability = emap::synth::class_variability(spec.cls);
  spec.noise_scale *= variability.noise_multiplier;
  spec.time_dilation_jitter *= variability.dilation_jitter_multiplier;
  spec.seed = seed;
  return emap::synth::RecordingGenerator{}.generate(spec);
}

emap::synth::Recording make_cohort_input(std::size_t index,
                                         std::uint64_t seed) {
  static constexpr emap::synth::AnomalyClass kClasses[] = {
      emap::synth::AnomalyClass::kSeizure,
      emap::synth::AnomalyClass::kEncephalopathy,
      emap::synth::AnomalyClass::kStroke, emap::synth::AnomalyClass::kNormal};
  return make_stratified_input(kClasses[index % 4], index / 4, seed);
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

namespace {
const Clock::time_point process_start = Clock::now();
}  // namespace

void log_phase(const char* workload, const char* phase) {
  std::fprintf(stderr, "[%s] %6.2f s  %s done\n", workload,
               seconds_since(process_start), phase);
}

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(Clock::now()) {
  if (enabled_) spans_.reserve(1 << 16);
}

SpanRecorder::Scope::Scope(SpanRecorder& recorder, const char* name,
                           std::uint64_t op)
    : recorder_(recorder) {
  if (!recorder_.enabled_) return;
  active_ = true;
  index_ = recorder_.spans_.size();
  const std::uint64_t parent =
      recorder_.open_.empty() ? 0 : recorder_.spans_[recorder_.open_.back()].id;
  if (op == 0 && !recorder_.open_.empty()) {
    op = recorder_.spans_[recorder_.open_.back()].op;
  }
  recorder_.spans_.push_back(Span{
      name, recorder_.next_id_++, parent, op,
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           recorder_.origin_)
          .count(),
      0});
  recorder_.open_.push_back(index_);
}

SpanRecorder::Scope::~Scope() {
  if (!active_) return;
  recorder_.spans_[index_].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           recorder_.origin_)
          .count();
  recorder_.open_.pop_back();
}

std::vector<double> SpanRecorder::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-9);
    }
  }
  return out;
}

void SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& span : spans_) {
    out << (first ? "" : ",") << "{\"name\":\"" << span.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(span.start_ns) / 1000.0
        << ",\"dur\":" << static_cast<double>(span.end_ns - span.start_ns) /
                              1000.0
        << ",\"args\":{\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"op\":" << span.op << "}}";
    first = false;
  }
  out << "]}\n";
}

MdbSetup build_mdb(std::size_t per_corpus, SpanRecorder& spans) {
  MdbSetup setup;
  emap::mdb::MdbBuilder builder;
  for (const auto& corpus : emap::synth::standard_corpora(per_corpus)) {
    const auto recordings = emap::synth::generate_corpus(corpus);
    SpanRecorder::Scope span(spans, "mdb.ingest");
    const auto start = Clock::now();
    for (std::size_t i = 0; i < recordings.size(); ++i) {
      builder.add_recording(recordings[i], corpus.name,
                            static_cast<std::uint32_t>(i));
    }
    setup.ingest_s += seconds_since(start);
  }
  setup.store = builder.take_store();
  double bytes = 0.0;
  for (const auto& set : setup.store.all()) {
    bytes += static_cast<double>(set.samples.size() * sizeof(double));
  }
  setup.store_mb = bytes / (1024.0 * 1024.0);
  return setup;
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(position));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (position - static_cast<double>(lo));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

void RunRecord::add_violations(const std::vector<std::string>& found,
                               const std::string& context) {
  for (const std::string& v : found) {
    if (violations.size() < 50) violations.push_back(context + ": " + v);
  }
}

}  // namespace perfbench

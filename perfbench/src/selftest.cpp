// Self-test of the output checks: each check first passes a real result,
// then must fail a deliberately corrupted copy of it.
#include <cmath>
#include <cstdio>

#include "emap/core/cloud_node.hpp"
#include "emap/core/edge_node.hpp"
#include "emap/core/pipeline.hpp"
#include "harness.hpp"
#include "oracle.hpp"

namespace perfbench {

namespace {

using emap::core::EmapConfig;

struct Outcome {
  int failures = 0;
  void expect(bool ok, const std::string& what) {
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  }
  void clean(const std::vector<std::string>& violations,
             const std::string& what) {
    expect(violations.empty(), what + " passes the real result");
    for (const auto& v : violations) std::printf("      %s\n", v.c_str());
  }
  void caught(const std::vector<std::string>& violations,
              const std::string& what) {
    expect(!violations.empty(), what + " is detected");
    if (!violations.empty()) {
      std::printf("      -> %s\n", violations.front().c_str());
    }
  }
};

}  // namespace

int run_self_test() {
  Outcome outcome;
  const EmapConfig config = EmapConfig::paper_defaults();
  SpanRecorder no_spans(false);
  MdbSetup mdb = build_mdb(kPerCorpus, no_spans);
  const emap::core::CloudNode node(mdb.store, config, 1);
  const oracle::StoreIndex index(node.store());

  // A real correlation set for the first window of a seizure input.
  const auto input =
      make_input(emap::synth::AnomalyClass::kSeizure, mix_seed(7, 9));
  emap::core::EdgeNode edge(config);
  std::vector<std::vector<double>> windows;
  for (std::size_t w = 0; w < 2; ++w) {
    windows.push_back(edge.acquire_window(std::span<const double>(
        input.samples.data() + w * config.window_length,
        config.window_length)));
  }
  emap::net::SignalUploadMessage upload;
  upload.samples = windows[0];
  upload = emap::net::decode_upload(emap::net::encode_upload(upload));
  const auto set = emap::net::decode_correlation_set(
      emap::net::encode_correlation_set(node.respond(upload)));
  outcome.expect(!set.entries.empty(), "the real correlation set is not empty");
  outcome.clean(oracle::check_correlation_set(upload.samples, set, index,
                                              config),
                "correlation-set check");
  auto shifted = set;
  shifted.entries.front().omega += 1e-3f;
  outcome.caught(oracle::check_correlation_set(upload.samples, shifted, index,
                                               config),
                 "one omega shifted by 1e-3");

  // A real tracking step on the next window.
  emap::core::EdgeTracker tracker(config);
  tracker.load_from_message(set);
  const auto step = tracker.step(windows[1]);
  const auto survivors = tracker.active();
  outcome.expect(!survivors.empty(), "the real step keeps survivors");
  outcome.clean(oracle::check_track_step(step, windows[1], survivors, config,
                                         true),
                "tracking-step check");
  auto far_off = survivors;
  if (!far_off.empty()) {
    auto& s = far_off.front();
    for (std::size_t beta = 0;
         beta + config.window_length <= s.samples.size(); ++beta) {
      const double a = oracle::area(
          windows[1], std::span<const double>(s.samples)
                          .subspan(beta, config.window_length));
      if (a > config.delta_area) {
        s.beta = beta;
        break;
      }
    }
  }
  outcome.caught(oracle::check_track_step(step, windows[1], far_off, config,
                                          true),
                 "a survivor whose area is above delta_A");
  auto unbalanced = step;
  unbalanced.removed_dissimilar += 1;
  outcome.caught(oracle::check_track_step(unbalanced, windows[1], survivors,
                                          config, true),
                 "a broken count balance");

  // A real Table I tally: 4 patients and 2 controls per class.
  emap::core::PipelineOptions options;
  options.stop_on_alarm = true;
  options.cloud_threads = bench_threads();
  emap::core::EmapPipeline pipeline(std::move(mdb.store), config, options);
  const double paper[] = {0.94, 0.73, 0.79};
  std::vector<oracle::ClassTally> tally;
  std::size_t c = 0;
  for (auto cls : emap::synth::kAnomalyClasses) {
    oracle::ClassTally t{emap::synth::anomaly_name(cls), paper[c], 0, 0};
    for (std::size_t i = 0; i < 6; ++i) {
      const bool patient = i < 4;
      const auto session = make_input(
          patient ? cls : emap::synth::AnomalyClass::kNormal,
          mix_seed(7, 10, c, i));
      const auto result = pipeline.run(
          session, patient ? session.spec.onset_sec : -1.0);
      ++t.sessions;
      if (result.anomaly_predicted == patient) ++t.correct;
    }
    tally.push_back(t);
    ++c;
  }
  outcome.clean(oracle::check_accuracy(tally), "accuracy check");
  std::vector<oracle::ClassTally> lowest = tally;
  for (auto& t : lowest) {
    t.correct = oracle::binomial_lower_end(t.sessions, t.paper_accuracy,
                                           oracle::kAccuracyTail);
  }
  outcome.clean(oracle::check_accuracy(lowest),
                "accuracy check at each interval's lower end");
  auto below = tally;
  const std::size_t lower = oracle::binomial_lower_end(
      below[0].sessions, below[0].paper_accuracy, oracle::kAccuracyTail);
  outcome.expect(lower > 0, "the seizure interval has a lower end above 0");
  below[0].correct = lower > 0 ? lower - 1 : 0;
  outcome.caught(oracle::check_accuracy(below),
                 "a per-class accuracy below its paper interval");

  std::printf("%s: %d check(s) misbehaved\n",
              outcome.failures == 0 ? "self-test passed" : "self-test FAILED",
              outcome.failures);
  return outcome.failures == 0 ? 0 : 1;
}

}  // namespace perfbench

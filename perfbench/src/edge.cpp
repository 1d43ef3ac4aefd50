// Workload `edge`: the edge loop alone.
//
// For each patient, every window runs EdgeNode::acquire_window, then
// EdgeTracker::step, then AnomalyPredictor::observe.  When the tracker
// asks for a new correlation set, the answer arrives as the batch loop
// would deliver it — at the first window its Eq. 4 response time has
// elapsed, the old set tracked meanwhile — and is decoded from the message
// CloudNode::respond produced for that window before the timed phase.  No
// search runs while timing, so the FIR, the tracker and the downlink
// decode do the work.  One operation is one window; a round replays the
// 100 s before onset of every patient's input.
#include <cmath>
#include <cstdio>
#include <map>

#include "emap/core/cloud_node.hpp"
#include "emap/core/edge_node.hpp"
#include "harness.hpp"
#include "layers.hpp"

namespace perfbench {

namespace {

/// The edge's cost per window follows the patient (how fast its tracked
/// set decays), so the replay covers two instances of every phenotype of
/// the stratified cohort.
constexpr std::size_t kPatients = 2 * kCohortSize;
/// The replayed stretch of each input: the 100 s before onset (240 s),
/// which hold the prodrome of the anomalous inputs.
constexpr std::size_t kFirstWindow = 140;
constexpr std::size_t kEndWindow = 240;
/// Answers whose search the exhaustive scan re-derives (per run).
constexpr std::size_t kExhaustiveQueries = 2;
/// Untimed rounds before the measured ones: the first replays after the
/// recording pass run measurably slower while freed memory is reused.
constexpr std::size_t kWarmupRounds = 2;
/// Uploads the traced run re-times around CloudNode::search.
constexpr std::size_t kTracedSearches = 16;

using emap::core::EmapConfig;

/// The cloud's answer to the window that asked, and the window at which
/// it reaches the edge.
struct Answer {
  std::size_t ready_window = 0;
  std::vector<std::uint8_t> bytes;
};
using Answers = std::map<std::size_t, Answer>;  // by asking window

/// What every replay of the inputs must reproduce exactly.
struct Digest {
  std::uint64_t windows = 0;
  std::uint64_t steps = 0;
  std::uint64_t loads = 0;
  std::uint64_t tracked_before = 0;
  std::uint64_t tracked_after = 0;
  std::uint64_t abs_ops = 0;
  bool operator==(const Digest&) const = default;
};

/// One patient's edge: the node and the answer it waits for.
struct Edge {
  explicit Edge(const EmapConfig& config) : node(config) {}
  emap::core::EdgeNode node;
  const Answer* pending = nullptr;
};

/// One window of the edge loop, with its step checked (counts and P_A
/// always; survivor areas when `check_areas`).  `ask(w, filtered)` returns
/// the answer to a request made at window w, or nullptr when it has none.
template <typename Ask>
void edge_window(Edge& edge, std::span<const double> raw, std::size_t w,
                 const EmapConfig& config, SpanRecorder& spans, Digest& digest,
                 RunRecord& record, bool check_areas, Ask&& ask) {
  std::vector<double> filtered;
  {
    SpanRecorder::Scope span(spans, "fir.acquire_window");
    filtered = edge.node.acquire_window(raw);
  }
  ++digest.windows;
  if (edge.pending != nullptr && w >= edge.pending->ready_window) {
    emap::net::CorrelationSetMessage message;
    {
      SpanRecorder::Scope span(spans, "transport.decode_set");
      message = emap::net::decode_correlation_set(edge.pending->bytes);
    }
    SpanRecorder::Scope span(spans, "tracker.load");
    edge.node.tracker().load_from_message(message);
    edge.pending = nullptr;
    ++digest.loads;
  }
  bool asks = !edge.node.tracker().loaded();
  if (!asks) {
    emap::core::TrackStepResult step;
    {
      SpanRecorder::Scope span(spans, "tracker.step");
      step = edge.node.tracker().step(filtered);
    }
    ++digest.steps;
    digest.tracked_before += step.tracked_before;
    digest.tracked_after += step.tracked_after;
    digest.abs_ops += step.abs_ops;
    const auto violations = oracle::check_track_step(
        step, filtered, edge.node.tracker().active(), config, check_areas);
    if (!violations.empty()) record.add_violations(violations, "edge step");
    if (step.tracked_after >= config.predict_min_support) {
      SpanRecorder::Scope span(spans, "predictor.observe");
      edge.node.predictor().observe(step.anomaly_probability,
                                    static_cast<double>(w + 1));
    }
    asks = step.cloud_call_needed;
  }
  if (asks && edge.pending == nullptr) {
    edge.pending = ask(w, std::move(filtered));
  }
}

}  // namespace

RunRecord run_edge(const Args& args) {
  RunRecord record;
  SpanRecorder spans(args.trace);
  LayerStats layers;
  const EmapConfig config = EmapConfig::paper_defaults();
  const std::size_t window = config.window_length;

  std::vector<emap::synth::Recording> inputs;
  for (std::size_t p = 0; p < kPatients; ++p) {
    inputs.push_back(make_cohort_input(p, mix_seed(args.seed, 3, p)));
  }
  const auto raw = [&](std::size_t p, std::size_t w) {
    return std::span<const double>(inputs[p].samples.data() + w * window,
                                   window);
  };

  log_phase("edge", "inputs");
  // Cold set-up: MDB ingest plus the serving object.
  MdbSetup mdb = build_mdb(kPerCorpus, spans);
  const auto construct_start = Clock::now();
  const emap::core::CloudNode node(std::move(mdb.store), config,
                                   bench_threads());
  const double setup_s = mdb.ingest_s + seconds_since(construct_start);
  layers.mdb_ingest_s = mdb.ingest_s;
  layers.mdb_store_mb = mdb.store_mb;
  const oracle::StoreIndex index(node.store());

  log_phase("edge", "set-up");
  // Untimed: record the cloud's answers.  Each patient runs the edge loop;
  // whenever its tracker asks, the window goes up through the upload
  // codec, CloudNode::respond answers it, and the answer is encoded,
  // checked and kept with its Eq. 4 arrival window.  This pass also checks
  // every survivor's area, and fixes the digest each timed replay must
  // reproduce.
  std::vector<Answers> answers(kPatients);
  Digest recorded;
  double initial_sum = 0.0;
  double omega_sum = 0.0;
  std::uint64_t omega_count = 0;
  std::vector<std::vector<double>> asked;  // windows as the cloud saw them
  std::vector<emap::net::CorrelationSetMessage> sampled_answers;
  for (std::size_t p = 0; p < kPatients; ++p) {
    const auto record_answer = [&](std::size_t w, std::vector<double> filtered)
        -> const Answer* {
      emap::net::SignalUploadMessage upload;
      upload.sequence = static_cast<std::uint32_t>(w);
      upload.samples = std::move(filtered);
      const std::vector<std::uint8_t> upload_bytes =
          emap::net::encode_upload(upload);
      upload = emap::net::decode_upload(upload_bytes);
      emap::core::SearchStats stats;
      const auto message = node.respond(upload, &stats);
      Answer answer;
      {
        SpanRecorder::Scope span(spans, "transport.encode_set");
        answer.bytes = emap::net::encode_correlation_set(message);
      }
      ++layers.sets_encoded;
      layers.set_bytes += static_cast<double>(answer.bytes.size());
      const auto decoded = emap::net::decode_correlation_set(answer.bytes);
      record.add_violations(
          oracle::check_correlation_set(upload.samples, decoded, index,
                                        config),
          "edge answer");
      for (const auto& entry : decoded.entries) {
        omega_sum += static_cast<double>(entry.omega);
        ++omega_count;
      }
      const double response_s = uplink_seconds(upload_bytes.size()) +
                                cloud_search_seconds(stats) +
                                downlink_seconds(answer.bytes.size());
      initial_sum += response_s;
      answer.ready_window =
          w + static_cast<std::size_t>(std::ceil(response_s));
      if (asked.size() < kTracedSearches) {
        asked.push_back(std::move(upload.samples));
        sampled_answers.push_back(decoded);
      }
      return &(answers[p][w] = std::move(answer));
    };
    Edge edge(config);
    for (std::size_t w = kFirstWindow; w < kEndWindow; ++w) {
      edge_window(edge, raw(p, w), w, config, spans, recorded, record, true,
                  record_answer);
    }
  }
  std::uint64_t asked_total = 0;
  for (const Answers& a : answers) asked_total += a.size();

  log_phase("edge", "recording");
  // Timed: replay every input against the recorded answers.
  double timed_s = 0.0;
  std::size_t rounds = 0;
  std::vector<double> round_times;
  Digest replayed;
  while (rounds <= kWarmupRounds ||
         timed_s + timed_s / static_cast<double>(rounds - kWarmupRounds) <=
             args.seconds) {
    std::vector<Edge> edges;
    edges.reserve(kPatients);
    for (std::size_t p = 0; p < kPatients; ++p) edges.emplace_back(config);
    Digest digest;
    const auto round_start = Clock::now();
    {
      SpanRecorder::Scope round_span(spans, "edge.round", rounds + 1);
      for (std::size_t p = 0; p < kPatients; ++p) {
        const auto recorded_answer = [&](std::size_t w,
                                         std::vector<double>) -> const Answer* {
          const auto it = answers[p].find(w);
          if (it != answers[p].end()) return &it->second;
          ++record.failed;
          return nullptr;
        };
        for (std::size_t w = kFirstWindow; w < kEndWindow; ++w) {
          edge_window(edges[p], raw(p, w), w, config, spans, digest, record,
                      false, recorded_answer);
        }
      }
    }
    const double round_s = seconds_since(round_start);
    if (rounds >= kWarmupRounds) {
      timed_s += round_s;
      round_times.push_back(round_s);
    }
    ++rounds;
    record.attempted += digest.windows;
    if (!(digest == recorded)) {
      record.violations.push_back("replay " + std::to_string(rounds) +
                                  " differs from the recorded pass");
    }
    replayed = digest;
  }

  log_phase("edge", "timed rounds");
  // Untimed: Algorithm 1 against the exhaustive scan on sampled answers.
  for (std::size_t i = 0; i < kExhaustiveQueries && i < asked.size(); ++i) {
    const std::size_t s = i * asked.size() / kExhaustiveQueries;
    layers.recall.push_back(brute_force_probe(asked[s], sampled_answers[s],
                                              node.store(), config, record));
  }

  log_phase("edge", "exhaustive scan");
  // Every round does the same work, so rates use the median round time,
  // which a burst of interference from other processes does not move.
  const double round_s = median(round_times);
  const double windows_per_s = static_cast<double>(replayed.windows) / round_s;
  if (!args.trace) {
    record.set("setup_s", setup_s, "s");
    record.set("peak_rss_mb", peak_rss_mb(), "MiB");
    record.set("windows_per_s", windows_per_s, "windows/s");
    record.set("queries_per_s", static_cast<double>(replayed.loads) / round_s,
               "queries/s");
    record.set("initial_response_s",
               initial_sum / static_cast<double>(asked_total), "s");
    // The device model is linear in ABS ops and tracked signals, so the
    // mean step time follows from the digest's sums.
    emap::core::TrackStepResult total;
    total.abs_ops = recorded.abs_ops;
    total.tracked_before = recorded.tracked_before;
    record.set("edge_iteration_s",
               edge_step_seconds(total) / static_cast<double>(recorded.steps),
               "s");
    record.set("top100_omega",
               omega_count > 0 ? omega_sum / static_cast<double>(omega_count)
                               : 0.0,
               "omega");
    return record;
  }

  // Traced run: the search and cloud-service layers timed on the recorded
  // uploads, and the pipeline layer, which the edge loop does not reach.
  layers.windows = replayed.windows;
  layers.steps = replayed.steps;
  layers.abs_ops = replayed.abs_ops;
  layers.loads = replayed.loads;
  probe_search(node, asked, spans, layers);
  probe_cloud_service(node.store(), asked, spans, layers);
  probe_pipeline(node.store(), {&inputs[0], &inputs[1]}, spans, layers);
  layers.emit(spans, record);
  std::fprintf(stderr, "[edge] traced: %.1f windows/s over %zu rounds\n",
               windows_per_s, rounds);
  spans.write_chrome_trace(args.out_dir + "/edge-seed" +
                           std::to_string(args.seed) + ".trace.json");
  return record;
}

}  // namespace perfbench

// Workload `fleet`: a fleet of patients queries one CloudService.
//
// Each round, every patient sends one wire-encoded upload (the next
// filtered one-second window of its input); the round is served by
// CloudService::process_all, and every correlation set is encoded and
// decoded on its way back.  Many queries wait at once and no edge work
// runs in the timed phase, so the MDB scan and the correlation-set codec
// do the work.  One operation is one query.
#include <cstdio>

#include "emap/core/cloud_service.hpp"
#include "emap/core/edge_node.hpp"
#include "harness.hpp"
#include "layers.hpp"

namespace perfbench {

namespace {

/// Four instances of every phenotype of the stratified cohort: a scan's
/// cost follows the character of the patient's signal, so the number of
/// distinct patients, not of queries, sets how much the mean moves from
/// seed to seed.
constexpr std::size_t kPatients = 4 * kCohortSize;
/// Leading windows of each input the rounds draw their uploads from.
constexpr std::size_t kWindows = 40;
/// Queries whose answer the exhaustive scan re-derives (per run).
constexpr std::size_t kExhaustiveQueries = 2;
/// Untimed rounds before the measured ones (first-touch allocation).
constexpr std::size_t kWarmupRounds = 1;
/// Rounds whose uploads the traced run re-times around CloudNode::search.
constexpr std::size_t kTracedSearchRounds = 2;
/// Windows each answer is tracked over for edge_iteration_s.
constexpr std::size_t kEdgeSteps = 5;

using emap::core::EmapConfig;
using Windows = std::vector<std::vector<double>>;

struct Query {
  std::size_t patient = 0;
  std::size_t window = 0;
  std::vector<double> at_cloud;  ///< the samples the cloud decoded
  std::size_t upload_bytes = 0;
};

}  // namespace

RunRecord run_fleet(const Args& args) {
  RunRecord record;
  SpanRecorder spans(args.trace);
  LayerStats layers;
  const EmapConfig config = EmapConfig::paper_defaults();

  // Inputs: the leading windows of each patient's input, filtered as its
  // edge would (untimed).  The first two inputs are kept whole for the
  // traced run's pipeline probe.
  std::vector<emap::synth::Recording> kept;
  std::vector<Windows> filtered(kPatients);
  for (std::size_t p = 0; p < kPatients; ++p) {
    auto input = make_cohort_input(p, mix_seed(args.seed, 2, p));
    emap::core::EdgeNode edge(config);
    for (std::size_t w = 0; w < kWindows; ++w) {
      SpanRecorder::Scope span(spans, "fir.acquire_window");
      filtered[p].push_back(edge.acquire_window(std::span<const double>(
          input.samples.data() + w * config.window_length,
          config.window_length)));
    }
    if (p < 2) kept.push_back(std::move(input));
  }

  log_phase("fleet", "inputs");
  // Cold set-up: MDB ingest plus the serving object.
  MdbSetup mdb = build_mdb(kPerCorpus, spans);
  const auto construct_start = Clock::now();
  // One device-model server per patient: initial_response_s is then each
  // query's Eq. 4 response, not the queueing of a synchronized burst.
  emap::core::CloudService service(std::move(mdb.store), config, kPatients);
  const double setup_s = mdb.ingest_s + seconds_since(construct_start);
  layers.mdb_ingest_s = mdb.ingest_s;
  layers.mdb_store_mb = mdb.store_mb;
  const oracle::StoreIndex index(service.node().store());

  log_phase("fleet", "set-up");
  double timed_s = 0.0;
  std::size_t rounds = 0;
  std::vector<double> round_rates;  // queries per second of each round
  double omega_sum = 0.0;
  std::uint64_t omega_count = 0;
  double initial_sum = 0.0;
  std::vector<Query> first_round;
  std::vector<emap::net::CorrelationSetMessage> first_round_sets(kPatients);
  std::vector<std::vector<double>> traced_queries;
  std::vector<double> edge_s;

  while (rounds <= kWarmupRounds ||
         timed_s + timed_s / static_cast<double>(rounds - kWarmupRounds) <=
             args.seconds) {
    const std::size_t window = rounds % (kWindows - kEdgeSteps);
    std::vector<Query> queries(kPatients);
    std::vector<emap::net::CorrelationSetMessage> sets(kPatients);
    std::vector<std::size_t> set_bytes(kPatients, 0);
    std::vector<emap::core::ServiceResponse> responses;

    const auto round_start = Clock::now();
    {
      SpanRecorder::Scope round_span(spans, "fleet.round", rounds + 1);
      for (std::size_t p = 0; p < kPatients; ++p) {
        emap::net::SignalUploadMessage upload;
        upload.sequence = static_cast<std::uint32_t>(window);
        upload.samples = filtered[p][window];
        std::vector<std::uint8_t> bytes;
        {
          SpanRecorder::Scope span(spans, "transport.encode_upload");
          bytes = emap::net::encode_upload(upload);
        }
        emap::core::ServiceRequest request;
        request.patient = static_cast<std::uint32_t>(p);
        request.arrival_sec = static_cast<double>(rounds);
        {
          SpanRecorder::Scope span(spans, "transport.decode_upload");
          request.upload = emap::net::decode_upload(bytes);
        }
        queries[p] = Query{p, window, request.upload.samples, bytes.size()};
        service.submit(std::move(request));
      }
      {
        SpanRecorder::Scope span(spans, "cloud_service.burst");
        responses = service.process_all();
      }
      for (const auto& response : responses) {
        std::vector<std::uint8_t> bytes;
        {
          SpanRecorder::Scope span(spans, "transport.encode_set");
          bytes = emap::net::encode_correlation_set(response.correlation_set);
        }
        SpanRecorder::Scope span(spans, "transport.decode_set");
        sets[response.patient] = emap::net::decode_correlation_set(bytes);
        set_bytes[response.patient] = bytes.size();
      }
    }
    const double round_s = seconds_since(round_start);
    if (rounds >= kWarmupRounds) {
      timed_s += round_s;
      round_rates.push_back(static_cast<double>(kPatients) / round_s);
    }
    ++rounds;

    // Untimed: account and check every answer of the round.
    record.attempted += kPatients;
    record.failed += kPatients - responses.size();
    for (const auto& response : responses) {
      const std::size_t p = response.patient;
      const auto& set = sets[p];
      record.add_violations(
          oracle::check_correlation_set(queries[p].at_cloud, set, index,
                                        config),
          "fleet round " + std::to_string(rounds) + " patient " +
              std::to_string(p));
      for (const auto& entry : set.entries) {
        omega_sum += static_cast<double>(entry.omega);
        ++omega_count;
      }
      initial_sum += uplink_seconds(queries[p].upload_bytes) +
                     response.response_sec() + downlink_seconds(set_bytes[p]);
      ++layers.sets_encoded;
      layers.set_bytes += static_cast<double>(set_bytes[p]);
      // The edge iteration this answer costs its patient: load the set,
      // track the patient's next windows.
      const auto next = filtered[p].begin() +
                        static_cast<std::ptrdiff_t>(queries[p].window + 1);
      for (double s : probe_tracker(set, Windows(next, next + kEdgeSteps),
                                    config, spans, layers, record)) {
        edge_s.push_back(s);
      }
    }
    if (rounds == 1) {
      first_round = queries;
      first_round_sets = sets;
    }
    if (args.trace && rounds <= kTracedSearchRounds) {
      for (const auto& q : queries) traced_queries.push_back(q.at_cloud);
    }
  }

  log_phase("fleet", "timed rounds");
  // Untimed: Algorithm 1 against the exhaustive scan on sampled queries.
  for (std::size_t i = 0; i < kExhaustiveQueries; ++i) {
    const std::size_t p = i * kPatients / kExhaustiveQueries;
    layers.recall.push_back(brute_force_probe(first_round[p].at_cloud,
                                              first_round_sets[p],
                                              service.node().store(), config,
                                              record));
  }

  log_phase("fleet", "checks");
  // The median round's rate, which a burst of interference from other
  // processes does not move.  Each query carries one window.
  const double queries_per_s = median(round_rates);
  const double queries_done = static_cast<double>(record.attempted);
  if (!args.trace) {
    record.set("setup_s", setup_s, "s");
    record.set("peak_rss_mb", peak_rss_mb(), "MiB");
    record.set("windows_per_s", queries_per_s, "windows/s");
    record.set("queries_per_s", queries_per_s, "queries/s");
    record.set("initial_response_s", initial_sum / queries_done, "s");
    record.set("edge_iteration_s", mean(edge_s), "s");
    record.set("top100_omega",
               omega_count > 0 ? omega_sum / static_cast<double>(omega_count)
                               : 0.0,
               "omega");
    return record;
  }

  // Traced run: the search layer timed on the fleet's own uploads, and
  // the pipeline layer, which this workload's loop does not reach.
  probe_search(service.node(), traced_queries, spans, layers);
  probe_pipeline(service.node().store(), {&kept[0], &kept[1]}, spans,
                 layers);
  layers.emit(spans, record);
  std::fprintf(stderr, "[fleet] traced: %.1f queries/s over %zu rounds\n",
               queries_per_s, rounds);
  spans.write_chrome_trace(args.out_dir + "/fleet-seed" +
                           std::to_string(args.seed) + ".trace.json");
  return record;
}

}  // namespace perfbench

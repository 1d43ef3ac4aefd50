#include "layers.hpp"

#include "emap/core/cloud_service.hpp"
#include "emap/core/pipeline.hpp"
#include "emap/core/tracker.hpp"
#include "emap/net/channel.hpp"
#include "emap/obs/metrics.hpp"
#include "emap/sim/device.hpp"

namespace perfbench {

using emap::core::EmapConfig;

void LayerStats::add_search(const emap::core::SearchStats& stats,
                            double wall_s, std::size_t slice_length) {
  ++searches;
  search_wall_s += wall_s;
  search_evals += stats.correlation_evals;
  search_bytes += static_cast<double>(stats.sets_scanned * slice_length *
                                      sizeof(double));
  search_skip_sum += stats.skip_ratio();
}

void LayerStats::emit(const SpanRecorder& spans, RunRecord& record) const {
  const auto per_search = [&](double value) {
    return searches > 0 ? value / static_cast<double>(searches) : 0.0;
  };
  const auto mean_us = [&](const char* span) {
    return mean(spans.durations(span)) * 1e6;
  };
  record.set("mdb.build_s", mdb_ingest_s, "s");
  record.set("mdb.store_mb", mdb_store_mb, "MiB");

  record.set("search.query_ms", per_search(search_wall_s) * 1e3, "ms");
  record.set("search.ns_per_eval",
             search_evals > 0
                 ? search_wall_s * 1e9 / static_cast<double>(search_evals)
                 : 0.0,
             "ns");
  record.set("search.mdb_gbps",
             search_wall_s > 0.0 ? search_bytes / search_wall_s / 1e9 : 0.0,
             "GB/s");
  record.set("search.evals_per_query",
             per_search(static_cast<double>(search_evals)), "count");
  record.set("search.skip_ratio", per_search(search_skip_sum), "ratio");
  record.set("search.recall_at_100", mean(recall), "ratio");

  const std::vector<double> bursts = spans.durations("cloud_service.burst");
  record.set("cloud_service.burst_ms_p50", percentile(bursts, 0.5) * 1e3,
             "ms");
  record.set("cloud_service.burst_ms_p90", percentile(bursts, 0.9) * 1e3,
             "ms");

  record.set("transport.set_bytes",
             sets_encoded > 0 ? set_bytes / static_cast<double>(sets_encoded)
                              : 0.0,
             "bytes");
  record.set("transport.encode_us", mean_us("transport.encode_set"), "us");
  record.set("transport.decode_us", mean_us("transport.decode_set"), "us");

  record.set("fir.us_per_window", mean_us("fir.acquire_window"), "us");

  record.set("tracker.step_us", mean_us("tracker.step"), "us");
  record.set("tracker.load_us", mean_us("tracker.load"), "us");
  record.set("tracker.reloads_per_100_windows",
             windows > 0 ? 100.0 * static_cast<double>(loads) /
                               static_cast<double>(windows)
                         : 0.0,
             "count");
  record.set("tracker.abs_ops_per_step",
             steps > 0 ? static_cast<double>(abs_ops) /
                             static_cast<double>(steps)
                       : 0.0,
             "count");

  const std::vector<double> sessions_s = spans.durations("pipeline.session");
  double session_total = 0.0;
  for (double s : sessions_s) session_total += s;
  record.set("pipeline.session_ms_p50", median(sessions_s) * 1e3, "ms");
  record.set("pipeline.cloud_calls_per_session",
             sessions > 0 ? static_cast<double>(session_cloud_calls) /
                                static_cast<double>(sessions)
                          : 0.0,
             "count");
  record.set("pipeline.search_share",
             session_total > 0.0 ? session_search_s / session_total : 0.0,
             "ratio");
}

void probe_search(const emap::core::CloudNode& node,
                  const std::vector<std::vector<double>>& queries,
                  SpanRecorder& spans, LayerStats& stats) {
  for (const auto& query : queries) {
    const auto start = Clock::now();
    emap::core::SearchResult result;
    {
      SpanRecorder::Scope span(spans, "search.query");
      result = node.search(query);
    }
    stats.add_search(result.stats, seconds_since(start),
                     node.store().info().slice_length);
  }
}

double brute_force_probe(std::span<const double> query,
                         const emap::net::CorrelationSetMessage& returned,
                         const emap::mdb::MdbStore& store,
                         const EmapConfig& config, RunRecord& record) {
  const oracle::BruteForce reference =
      oracle::brute_force_scan(query, store, config, bench_threads());
  double best = -1.0;
  std::vector<std::uint64_t> set_ids;
  for (const auto& entry : returned.entries) {
    best = std::max(best, static_cast<double>(entry.omega));
    set_ids.push_back(entry.set_id);
  }
  if (!returned.entries.empty()) {
    record.add_violations(oracle::check_upper_bound(reference, best),
                          "exhaustive bound");
  }
  return oracle::recall(reference, set_ids);
}

void probe_cloud_service(const emap::mdb::MdbStore& store,
                         const std::vector<std::vector<double>>& queries,
                         SpanRecorder& spans, LayerStats& stats) {
  constexpr std::size_t burst = 16;
  emap::core::CloudService service(store, EmapConfig::paper_defaults());
  for (std::size_t begin = 0; begin < queries.size(); begin += burst) {
    const std::size_t end = std::min(queries.size(), begin + burst);
    for (std::size_t i = begin; i < end; ++i) {
      emap::core::ServiceRequest request;
      request.patient = static_cast<std::uint32_t>(i - begin);
      request.upload.sequence = static_cast<std::uint32_t>(i);
      request.upload.samples = queries[i];
      service.submit(std::move(request));
    }
    std::vector<emap::core::ServiceResponse> responses;
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
      ++stats.sets_encoded;
      stats.set_bytes += static_cast<double>(bytes.size());
      SpanRecorder::Scope span(spans, "transport.decode_set");
      (void)emap::net::decode_correlation_set(bytes);
    }
  }
}

std::vector<double> probe_tracker(
    const emap::net::CorrelationSetMessage& message,
    const std::vector<std::vector<double>>& next_windows,
    const EmapConfig& config, SpanRecorder& spans, LayerStats& stats,
    RunRecord& record) {
  emap::core::EdgeTracker tracker(config);
  {
    SpanRecorder::Scope span(spans, "tracker.load");
    tracker.load_from_message(message);
  }
  ++stats.loads;
  std::vector<double> device_s;
  for (const auto& window : next_windows) {
    emap::core::TrackStepResult step;
    {
      SpanRecorder::Scope span(spans, "tracker.step");
      step = tracker.step(window);
    }
    ++stats.windows;
    ++stats.steps;
    stats.abs_ops += step.abs_ops;
    record.add_violations(oracle::check_track_step(step, window,
                                                   tracker.active(), config,
                                                   true),
                          "tracker step");
    device_s.push_back(edge_step_seconds(step));
  }
  return device_s;
}

void probe_pipeline(const emap::mdb::MdbStore& store,
                    const std::vector<const emap::synth::Recording*>& inputs,
                    SpanRecorder& spans, LayerStats& stats) {
  emap::obs::MetricsRegistry registry;
  emap::core::PipelineOptions options;
  options.stop_on_alarm = true;
  options.cloud_threads = bench_threads();
  options.metrics = &registry;
  emap::core::EmapPipeline pipeline(store, EmapConfig::paper_defaults(),
                                    options);
  for (const emap::synth::Recording* input : inputs) {
    const bool patient =
        input->spec.cls != emap::synth::AnomalyClass::kNormal;
    emap::core::RunResult result;
    {
      SpanRecorder::Scope span(spans, "pipeline.session");
      result = pipeline.run(*input, patient ? input->spec.onset_sec : -1.0);
    }
    ++stats.sessions;
    stats.session_cloud_calls += result.cloud_calls;
  }
  stats.session_search_s += registry.histogram("emap_search_wall_seconds").sum();
}

double edge_step_seconds(const emap::core::TrackStepResult& step) {
  static const emap::sim::DeviceProfile edge = emap::sim::edge_raspberry_pi();
  return edge.seconds_for_abs(static_cast<double>(step.abs_ops)) +
         edge.per_signal_overhead_sec *
             static_cast<double>(step.tracked_before);
}

double cloud_search_seconds(const emap::core::SearchStats& stats) {
  static const emap::sim::DeviceProfile cloud = emap::sim::cloud_i7();
  return cloud.seconds_for_macs(static_cast<double>(stats.mac_ops)) +
         cloud.per_signal_overhead_sec *
             static_cast<double>(stats.sets_scanned);
}

double uplink_seconds(std::size_t bytes) {
  static const emap::net::Channel channel(emap::net::CommPlatform::kLte);
  return channel.expected_seconds(emap::net::Direction::kUpload, bytes);
}

double downlink_seconds(std::size_t bytes) {
  static const emap::net::Channel channel(emap::net::CommPlatform::kLte);
  return channel.expected_seconds(emap::net::Direction::kDownload, bytes);
}

}  // namespace perfbench

// Per-layer accounting of a traced run, and the probes shared by the
// workloads.
//
// A traced run measures every layer named in BENCHMARK.json.  Layers on
// a workload's own loop are timed by spans around the loop's calls; a
// layer the loop does not reach is timed by a short probe over the same
// run's inputs (for example the edge replay runs two pipeline sessions to
// report pipeline.*).  README.md lists, per metric, the workload whose
// loop it belongs to.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "emap/core/cloud_node.hpp"
#include "emap/core/config.hpp"
#include "emap/mdb/store.hpp"
#include "emap/net/transport.hpp"
#include "emap/synth/generator.hpp"
#include "harness.hpp"
#include "oracle.hpp"

namespace perfbench {

/// Counts gathered beside the spans; durations come from the spans.
struct LayerStats {
  double mdb_ingest_s = 0.0;
  double mdb_store_mb = 0.0;

  // core/search: one entry per search, whether timed by a span here or
  // read from the program's own counters.
  std::uint64_t searches = 0;
  double search_wall_s = 0.0;
  std::uint64_t search_evals = 0;
  double search_bytes = 0.0;  ///< MDB sample bytes the scans passed over
  double search_skip_sum = 0.0;
  std::vector<double> recall;

  // net/transport
  std::uint64_t sets_encoded = 0;
  double set_bytes = 0.0;

  // core/tracker
  std::uint64_t windows = 0;
  std::uint64_t steps = 0;
  std::uint64_t abs_ops = 0;
  std::uint64_t loads = 0;

  // core/pipeline
  std::uint64_t sessions = 0;
  std::uint64_t session_cloud_calls = 0;
  double session_search_s = 0.0;  ///< search wall time inside sessions

  void add_search(const emap::core::SearchStats& stats, double wall_s,
                  std::size_t slice_length);

  /// Sets every per-layer metric of BENCHMARK.json on `record`.
  void emit(const SpanRecorder& spans, RunRecord& record) const;
};

/// Times CloudNode::search on each query (span "search.query").
void probe_search(const emap::core::CloudNode& node,
                  const std::vector<std::vector<double>>& queries,
                  SpanRecorder& spans, LayerStats& stats);

/// Exhaustive scan of one query: checks Algorithm 1's best ω against it
/// and returns the recall of the returned set ids.
double brute_force_probe(std::span<const double> query,
                         const emap::net::CorrelationSetMessage& returned,
                         const emap::mdb::MdbStore& store,
                         const emap::core::EmapConfig& config,
                         RunRecord& record);

/// Serves the uploads in bursts of 16 through a CloudService built on a
/// copy of the store (spans "cloud_service.burst", "transport.encode_set",
/// "transport.decode_set").
void probe_cloud_service(const emap::mdb::MdbStore& store,
                         const std::vector<std::vector<double>>& queries,
                         SpanRecorder& spans, LayerStats& stats);

/// Loads a decoded correlation set into a fresh tracker and steps it over
/// the following windows (spans "tracker.load", "tracker.step").  Checks
/// every step and returns the edge-device-model seconds of each.
std::vector<double> probe_tracker(
    const emap::net::CorrelationSetMessage& message,
    const std::vector<std::vector<double>>& next_windows,
    const emap::core::EmapConfig& config, SpanRecorder& spans,
    LayerStats& stats, RunRecord& record);

/// Runs monitoring sessions through an EmapPipeline built on a copy of
/// the store (span "pipeline.session"; search time from the pipeline's
/// metrics registry).
void probe_pipeline(const emap::mdb::MdbStore& store,
                    const std::vector<const emap::synth::Recording*>& inputs,
                    SpanRecorder& spans, LayerStats& stats);

/// Edge-device-model seconds of one tracking step (as the pipeline
/// charges it).
double edge_step_seconds(const emap::core::TrackStepResult& step);

/// Eq. 4 Δ_CS: cloud-device-model seconds of one search.
double cloud_search_seconds(const emap::core::SearchStats& stats);

/// Eq. 4 transfer legs on the paper's LTE link, jitter-free.
double uplink_seconds(std::size_t bytes);
double downlink_seconds(std::size_t bytes);

}  // namespace perfbench

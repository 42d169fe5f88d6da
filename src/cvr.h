// Umbrella header: the library's public API in one include.
//
//   #include "src/cvr.h"
//
// Subsystem map (see DESIGN.md for the full inventory):
//   cvr::core    — QoE model, Algorithm 1 (DvGreedyAllocator), baselines
//                  (Firefly, PAVQ), exact solvers, bounds, horizon tools
//   cvr::trace   — network traces, generators, repository, stats, CSV
//   cvr::motion  — 6-DoF poses, predictors, FoV coverage, margin control
//   cvr::content — quality levels, rate functions, tiles, projections,
//                  content DB, caches
//   cvr::net     — M/M/1, token bucket, wireless channel, RTP, estimators
//   cvr::render  — online rendering/encoding GPU farm (Section VIII)
//   cvr::proto   — wire-format message codecs
//   cvr::sim     — the Section-IV trace-based simulation platform
//   cvr::system  — the Sections V-VI prototype emulation
//   cvr::report  — CSV/markdown experiment reporting
#pragma once

// util
#include "src/util/csv.h"
#include "src/util/flags.h"
#include "src/util/logging.h"
#include "src/util/regression.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/units.h"

// trace
#include "src/trace/fcc_generator.h"
#include "src/trace/lte_generator.h"
#include "src/trace/network_trace.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_repository.h"

// motion
#include "src/motion/accuracy.h"
#include "src/motion/fov.h"
#include "src/motion/kalman_predictor.h"
#include "src/motion/margin_controller.h"
#include "src/motion/motion_generator.h"
#include "src/motion/persistence_predictor.h"
#include "src/motion/pose.h"
#include "src/motion/predictor.h"
#include "src/motion/predictor_base.h"

// content
#include "src/content/client_buffer.h"
#include "src/content/content_db.h"
#include "src/content/cubemap.h"
#include "src/content/delivered_tracker.h"
#include "src/content/equirect.h"
#include "src/content/quality.h"
#include "src/content/rate_function.h"
#include "src/content/tile.h"

// net
#include "src/net/ack_channel.h"
#include "src/net/estimators.h"
#include "src/net/loss_estimator.h"
#include "src/net/mm1.h"
#include "src/net/rtp_transport.h"
#include "src/net/token_bucket.h"
#include "src/net/wireless_channel.h"

// render
#include "src/render/render_farm.h"

// proto
#include "src/proto/codec.h"
#include "src/proto/messages.h"

// core
#include "src/core/allocator.h"
#include "src/core/dv_greedy.h"
#include "src/core/firefly.h"
#include "src/core/fractional.h"
#include "src/core/horizon.h"
#include "src/core/lagrangian.h"
#include "src/core/optimal.h"
#include "src/core/pavq.h"
#include "src/core/qoe.h"
#include "src/core/registry.h"

// sim / system / report
#include "src/report/report.h"
#include "src/sim/metrics.h"
#include "src/sim/simulation.h"
#include "src/system/client.h"
#include "src/system/decoder.h"
#include "src/system/device.h"
#include "src/system/server.h"
#include "src/system/system_sim.h"
#include "src/system/timeline.h"
#include "src/experiments/ensemble.h"

// Allocator registry: construct any policy in the library by name.
//
// The single place that maps the string names used by CLIs, configs and
// reports onto allocator factories, so new policies need one
// registration instead of edits to every front-end.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/core/allocator.h"

namespace cvr::core {

/// How the caller will use the allocator — a couple of policies differ
/// between the perfect-knowledge simulation and the estimated system.
enum class AllocatorContext {
  kTraceSimulation,  ///< Section IV: perfect per-slot knowledge.
  kSystem,           ///< Sections V-VI: long-run estimates.
};

/// Names accepted by make_allocator, in presentation order.
std::vector<std::string> allocator_names();

/// Constructs the named allocator, or nullptr for an unknown name.
/// Known names: "dv" (heap argmax, the default), "dv-scan" (the
/// paper-literal O(N^2 L) scan, same results — the differential
/// reference), "density", "value", "firefly", "pavq", "lagrangian",
/// "optimal" (brute force), "dp".
std::unique_ptr<Allocator> make_allocator(
    const std::string& name,
    AllocatorContext context = AllocatorContext::kTraceSimulation);

}  // namespace cvr::core

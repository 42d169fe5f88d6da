#include "src/core/registry.h"

#include "src/core/dv_greedy.h"
#include "src/core/firefly.h"
#include "src/core/lagrangian.h"
#include "src/core/optimal.h"
#include "src/core/pavq.h"

namespace cvr::core {

std::vector<std::string> allocator_names() {
  return {"dv",   "dv-scan",    "density", "value", "firefly",
          "pavq", "lagrangian", "optimal", "dp"};
}

std::unique_ptr<Allocator> make_allocator(const std::string& name,
                                          AllocatorContext context) {
  if (name == "dv") return std::make_unique<DvGreedyAllocator>();
  if (name == "dv-scan") {
    // The paper-literal O(N^2 L) argmax scan, kept as the differential
    // reference for the heap default (see dv_greedy.h).
    return std::make_unique<DvGreedyAllocator>(
        DvGreedyAllocator::Mode::kCombined,
        DvGreedyAllocator::Strategy::kScan);
  }
  if (name == "density") {
    return std::make_unique<DvGreedyAllocator>(
        DvGreedyAllocator::Mode::kDensityOnly);
  }
  if (name == "value") {
    return std::make_unique<DvGreedyAllocator>(
        DvGreedyAllocator::Mode::kValueOnly);
  }
  if (name == "firefly") return std::make_unique<FireflyAllocator>();
  if (name == "pavq") {
    return context == AllocatorContext::kTraceSimulation
               ? std::make_unique<PavqAllocator>(
                     PavqAllocator::perfect_knowledge())
               : std::make_unique<PavqAllocator>();
  }
  if (name == "lagrangian") return std::make_unique<LagrangianAllocator>();
  if (name == "optimal") return std::make_unique<BruteForceAllocator>();
  if (name == "dp") return std::make_unique<DpAllocator>();
  return nullptr;
}

}  // namespace cvr::core

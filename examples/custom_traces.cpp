// Custom traces: run the simulator on YOUR network traces instead of
// the synthetic FCC/LTE generators. Demonstrates the trace CSV format
// (duration_s,mbps rows), the slot mapper, and single-trace inspection.
//
//   $ ./custom_traces my_trace.csv            # use a real trace file
//   $ ./custom_traces                         # generate + export a sample
#include <cstdio>

#include "src/core/dv_greedy.h"
#include "src/core/qoe.h"
#include "src/content/rate_function.h"
#include "src/net/mm1.h"
#include "src/trace/fcc_generator.h"
#include "src/trace/trace_io.h"

int main(int argc, char** argv) {
  using namespace cvr;

  trace::NetworkTrace net_trace;
  if (argc > 1) {
    try {
      net_trace = trace::load_trace(argv[1]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "failed to load %s: %s\n", argv[1], e.what());
      return 1;
    }
    std::printf("loaded %s: %.1f s, mean %.1f Mbps, %zu segments\n", argv[1],
                net_trace.duration_s(), net_trace.mean_mbps(),
                net_trace.segments().size());
  } else {
    net_trace = trace::FccGenerator().generate(/*seed=*/42);
    const std::string path = "sample_trace.csv";
    trace::save_trace(path, net_trace);
    std::printf("no trace given; generated an FCC-style one and saved it to "
                "%s (%.1f s, mean %.1f Mbps)\n",
                path.c_str(), net_trace.duration_s(), net_trace.mean_mbps());
  }
  net_trace.clip(20.0, 100.0);  // the paper's working range

  // Single-user adaptation along the trace: every second, rebuild the
  // slot problem from the current bandwidth and allocate.
  const content::CrfRateFunction rate_function;
  core::DvGreedyAllocator allocator;
  core::UserQoeAccumulator qoe;
  const core::QoeParams params{0.05, 0.5};

  const trace::SlotMapper mapper(net_trace);
  const std::size_t slots =
      static_cast<std::size_t>(net_trace.duration_s() * 66.0);
  std::printf("\n%8s %10s %7s %12s\n", "time s", "B_n Mbps", "level",
              "delay ms");
  for (std::size_t t = 0; t < slots; ++t) {
    const double bandwidth = mapper.bandwidth_for_slot(t);
    core::SlotProblem problem;
    problem.params = params;
    problem.server_bandwidth = bandwidth;  // single user: B(t) = B_n(t)
    problem.push_back(core::UserSlotContext::from_rate_function(
        rate_function, bandwidth, /*delta=*/0.92, qoe.mean_viewed_quality(),
        static_cast<double>(t + 1)));
    const auto allocation = allocator.allocate(problem);
    const auto q = allocation.levels[0];
    const double delay = problem.delay_of(0, q);
    qoe.record(q, /*viewed=*/true, delay);
    if (t % (66 * 10) == 0) {  // print every 10 s
      std::printf("%8.1f %10.1f %7d %12.2f\n",
                  static_cast<double>(t) / 66.0, bandwidth, q, delay);
    }
  }

  std::printf("\nhorizon results: mean level %.2f, mean delay %.2f ms, "
              "quality variance %.3f, avg QoE %.3f\n",
              qoe.mean_level(), qoe.mean_delay(), qoe.variance(),
              qoe.average_qoe(params));
  return 0;
}

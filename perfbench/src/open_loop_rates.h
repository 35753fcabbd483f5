// Injected rates of the paper_openloop workload, committed as constants so
// the workload runs no saturation cell of its own.
//
// kQuarterSaturation[a][b] is the paper's open-loop operating point for
// architecture a (core::all_architectures() order) on benchmark b
// (traffic::all_benchmarks() order): 0.25 x the saturation injected rate /
// message expansion, from ExperimentRunner's saturation protocol at n=8,
// seed 42 (the paper_saturation reference). Fig. 6a/6b latency cells use
// their own row; Table 1 power cells all use the Baseline row, the paper's
// equal offered load.
#pragma once

namespace perfbench {

inline constexpr double kQuarterSaturation[6][6] = {
    // UniformRandom, Shuffle, Hotspot, Multicast5, Multicast10,
    // Multicast_static
    {0.4028125, 0.4215625, 0.100390625, 0.3374007840721312,
     0.28986157917049893, 0.2842138575038139},  // Baseline
    {0.3855859375, 0.3975, 0.100390625, 0.362890625, 0.3334375,
     0.26359375},  // BasicNonSpeculative
    {0.3937890625, 0.3971875, 0.1004296875, 0.3626953125, 0.3305078125,
     0.256015625},  // BasicHybridSpeculative
    {0.4449609375, 0.50875, 0.100390625, 0.40265625, 0.359453125,
     0.280859375},  // OptNonSpeculative
    {0.4451171875, 0.5278125, 0.100390625, 0.400234375, 0.355078125,
     0.2723828125},  // OptHybridSpeculative
    {0.4595703125, 0.5553125, 0.100390625, 0.4039453125, 0.3572265625,
     0.2769921875},  // OptAllSpeculative
};

}  // namespace perfbench

// Burstiness profile: sample a workload's off-chip traffic with the 5 us
// miss sampler and classify it (the paper's section III-B.2 methodology).
//
// Usage: burstiness_profile [program [class...]]
//   e.g. burstiness_profile CG S C
//        burstiness_profile x264 simsmall native
// Defaults to CG; with no class given, runs every class of the program.
// An unknown program or class prints the usage and exits 2.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "core/occm.hpp"

namespace {

using namespace occm;

void usage(std::FILE* to, const char* argv0) {
  std::fprintf(to,
               "usage: %s [PROGRAM [CLASS...]]\n"
               "  PROGRAM  EP, IS, FT, CG, SP or x264 (default CG)\n"
               "  CLASS    S, W, A, B or C for the NPB programs; simsmall,\n"
               "           simmedium, simlarge or native for x264 (default:\n"
               "           every class of the program)\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using workloads::ProblemClass;
  const auto die = [&](const std::string& why) {
    std::fprintf(stderr, "error: %s\n", why.c_str());
    usage(stderr, argv[0]);
    std::exit(2);
  };
  workloads::Program program = workloads::Program::kCG;
  if (argc > 1) {
    const std::string arg = argv[1];
    if (arg == "--help" || arg == "-h") {
      usage(stdout, argv[0]);
      return 0;
    }
    const auto parsed = workloads::parseProgram(arg);
    if (!parsed) {
      die("unknown program \"" + arg + "\"");
    }
    program = *parsed;
  }
  std::vector<ProblemClass> classes;
  for (int i = 2; i < argc; ++i) {
    const auto cls = workloads::parseProblemClass(argv[i]);
    if (!cls || !workloads::classValidFor(program, *cls)) {
      die("unknown class \"" + std::string(argv[i]) + "\" for " +
          workloads::programName(program));
    }
    classes.push_back(*cls);
  }
  if (classes.empty()) {
    for (ProblemClass cls :
         {ProblemClass::kS, ProblemClass::kW, ProblemClass::kA,
          ProblemClass::kB, ProblemClass::kC, ProblemClass::kSimSmall,
          ProblemClass::kSimMedium, ProblemClass::kSimLarge,
          ProblemClass::kNative}) {
      if (workloads::classValidFor(program, cls)) {
        classes.push_back(cls);
      }
    }
  }

  const auto machine = topology::intelNuma24();
  std::printf("Sampling LLC misses every 5 us on %s (%d threads, %d cores)\n",
              machine.name.c_str(), machine.logicalCores(),
              machine.logicalCores());

  for (workloads::ProblemClass cls : classes) {
    analysis::SweepConfig config;
    config.machine = machine;
    config.workload.program = program;
    config.workload.problemClass = cls;
    config.sim.enableSampler = true;
    config.coreCounts = {machine.logicalCores()};
    const auto sweep = analysis::runSweep(config);
    const auto& profile = sweep.profiles.front();
    const model::BurstinessReport report =
        model::analyzeBurstiness(profile.missWindows);
    std::printf("\n%s:\n", profile.program.c_str());
    std::printf("  %llu misses over %llu windows; idle fraction %.3f\n",
                static_cast<unsigned long long>(profile.counters.llcMisses),
                static_cast<unsigned long long>(report.totalWindows),
                report.idleFraction);
    std::printf("  burst sizes: mean %.1f, max %.0f, cv %.2f -> %s\n",
                report.meanBurst, report.maxBurst, report.cv,
                report.bursty ? "BURSTY" : "NON-BURSTY");
  }
  return 0;
}

// Tracer: capture the primitive stream of a simulated run into the text
// trace format, and replay trace files — the paper's "trace-driven
// simulation" future-work item as a usable tool.
//
//   $ ./tracer capture out.trace [n] [tasks] [grain]   # record a work-queue run
//   $ ./tracer replay  in.trace  [n]                   # re-execute a trace
//
// Capture runs the work-queue workload on the paper's machine and writes
// every primitive each processor issued. Replay drives a fresh machine
// from the file and reports completion time and message counts — the same
// program, now reproducible without the workload's randomness.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "conf/scenario.hpp"
#include "core/machine.hpp"
#include "workload/trace.hpp"
#include "workload/work_queue_model.hpp"

using namespace bcsim;

namespace {

core::MachineConfig machine_config(std::uint32_t n) {
  return conf::build_machine({.nodes = n, .flavor = "paper"});
}

int capture(const char* path, std::uint32_t n, std::uint32_t tasks, std::uint32_t grain) {
  core::Machine m(machine_config(n));
  workload::TraceRecorder rec(m);
  workload::WorkQueueConfig wq;
  wq.total_tasks = tasks;
  wq.grain = grain;
  workload::WorkQueueWorkload w(m, wq);
  w.spawn_all(m);
  const Tick t = m.run();
  rec.detach();
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  out << "# bcsim trace: work-queue, n=" << n << " tasks=" << tasks << " grain=" << grain
      << "\n# original completion: " << t << " cycles\n";
  rec.trace().write(out);
  std::printf("captured %zu records to %s (original run: %llu cycles, %llu tasks)\n",
              rec.trace().size(), path, static_cast<unsigned long long>(t),
              static_cast<unsigned long long>(w.tasks_executed(m)));
  return 0;
}

int replay(const char* path, std::uint32_t n) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path);
    return 1;
  }
  workload::Trace trace = workload::Trace::parse(in);
  core::Machine m(machine_config(n));
  workload::TraceWorkload w(m, std::move(trace));
  w.spawn_all(m);
  const Tick t = m.run();
  std::printf("replayed on %u nodes: %llu cycles, %llu network messages\n", n,
              static_cast<unsigned long long>(t),
              static_cast<unsigned long long>(m.stats().counter_value("net.messages")));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s capture <out.trace> [n] [tasks] [grain]\n"
                 "       %s replay  <in.trace>  [n]\n",
                 argv[0], argv[0]);
    return 2;
  }
  const auto n = argc > 3 ? static_cast<std::uint32_t>(std::atoi(argv[3])) : 8u;
  if (std::strcmp(argv[1], "capture") == 0) {
    const auto tasks = argc > 4 ? static_cast<std::uint32_t>(std::atoi(argv[4])) : 64u;
    const auto grain = argc > 5 ? static_cast<std::uint32_t>(std::atoi(argv[5])) : 50u;
    return capture(argv[2], n, tasks, grain);
  }
  if (std::strcmp(argv[1], "replay") == 0) {
    return replay(argv[2], n);
  }
  std::fprintf(stderr, "unknown mode '%s'\n", argv[1]);
  return 2;
}

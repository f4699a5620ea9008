// perfbench workload runner: runs one workload and prints one JSON
// record (see measure.h RunRecord) as the last line of stdout.
//
//   perfbench <fit|stream|serve_online|serve_bulk> --seed N --seconds S
//             --trace 0|1 [--scratch DIR]
//
// perfbench/run.py builds this binary and turns the record into the
// benchmark's result line.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "common/cpu.h"
#include "common/precision.h"
#include "common/thread_pool.h"
#include "workloads.h"

namespace {

// Steal and total ticks of all CPUs (first line of /proc/stat), or
// zeros where unavailable.
struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;
};

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  for (int field = 0; field < 10; ++field) {
    double value = 0.0;
    if (!(stat >> value)) break;
    ticks.total += value;
    if (field == 7) ticks.steal = value;  // user nice system idle iowait
                                          // irq softirq steal ...
  }
  return ticks;
}

int Usage() {
  std::cerr << "usage: perfbench <fit|stream|serve_online|serve_bulk> "
               "--seed N --seconds S --trace 0|1 [--scratch DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  perfbench::RunArgs args;
  args.workload = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--scratch") {
      args.scratch_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 0) return Usage();
  // Intra-op lanes, unless SBRL_NUM_THREADS is already set; the pool
  // reads it on first use, so this runs before anything creates it.
  //  - stream keeps the host's lanes: its shard waves are coarse and
  //    its parallel path pays.
  //  - serve_online: nproc - 1 sender threads leave one lane for the
  //    batcher, so the process uses at most nproc threads.
  //  - fit and serve_bulk run on one lane. At their shapes the pool's
  //    fine-grained fan-out does not pay, and on a host that steals
  //    CPU it makes run times swing by 2x between runs (README
  //    "Baseline facts"); the traced fit run refits at nproc lanes in
  //    a second process and reports the lane speedup.
  if (args.workload != "stream") {
    ::setenv("SBRL_NUM_THREADS", "1", /*overwrite=*/0);
  }

  perfbench::RunRecord record;
  record.workload = args.workload;
  record.seed = args.seed;
  perfbench::InitLayerMetrics(&record);
  record.meta["nproc"] = std::to_string(std::thread::hardware_concurrency());
  record.meta["lanes"] =
      std::to_string(sbrl::ThreadPool::GlobalParallelism());
  record.meta["isa"] = sbrl::IsaName(sbrl::ActiveIsa());
  record.meta["cpu"] = sbrl::CpuFeatureString();
  record.meta["precision"] =
      sbrl::PrecisionName(sbrl::ResolvePrecision(sbrl::Precision::kF64));
  record.meta["build"] = sbrl::BuildFlagsString();
  const CpuTicks before = ReadCpuTicks();
  try {
    if (args.workload == "fit") {
      perfbench::RunFit(args, &record);
    } else if (args.workload == "stream") {
      perfbench::RunStream(args, &record);
    } else if (args.workload == "serve_online") {
      perfbench::RunServeOnline(args, &record);
    } else if (args.workload == "serve_bulk") {
      perfbench::RunServeBulk(args, &record);
    } else {
      return Usage();
    }
  } catch (const std::exception& e) {
    record.ledger.Check(false, std::string("exception: ") + e.what());
  }
  // How much CPU time the host took from this machine during the run:
  // the main source of run-to-run noise on a shared virtual machine.
  const CpuTicks after = ReadCpuTicks();
  if (after.total > before.total) {
    char steal[32];
    std::snprintf(steal, sizeof(steal), "%.2f",
                  100.0 * (after.steal - before.steal) /
                      (after.total - before.total));
    record.meta["steal_pct"] = steal;
  }
  perfbench::WriteJson(record, std::cout);
  return 0;
}

// Subcommand entry points. Training workloads live in
// train_workloads.cc (the only file that knows the trainer classes);
// serving workloads in serve_workloads.cc.
#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include "harness/common.h"

namespace perfbench {

int PrepareStore(const Args& args);
int RunTrain(const Args& args);
int WriteServeCheckpoint(const Args& args);
int RunServeLoad(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_

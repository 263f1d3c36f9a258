// Outside-in process counters read from Linux /proc: what a daemon's threads
// spent, how often they blocked, what the process wrote to storage. Nothing
// here needs the daemon's cooperation — the numbers come from the kernel,
// grouped by the thread names the mca runtime already sets.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>

namespace clusterbench {

// The runtime's thread families (thread comm → group):
//   reactor  mca-net-reactor      epoll receive loop
//   rpc      mca-rpc-*            RPC service handlers
//   timer    mca-timer            retransmission + recovery ticks
//   wal      mca-wal              WAL group-commit writer
//   exec     mca-exec-*           runtime executor (recovery passes)
//   other    everything else (main thread, reassembly sweep)
[[nodiscard]] std::string thread_group(const std::string& comm);

struct TaskCounters {
  std::string group;
  double cpu_ms = 0;                    // schedstat run time
  std::uint64_t voluntary_switches = 0;
};

struct ProcessSample {
  double cpu_ms = 0;  // utime + stime, exited threads included
  double rss_mb = 0;  // VmRSS
  int threads = 0;
  std::uint64_t write_bytes = 0;     // /proc/<pid>/io: bytes sent to storage
  std::uint64_t write_syscalls = 0;  // /proc/<pid>/io: syscw
  std::map<int, TaskCounters> tasks;  // by tid
};

// Throws std::runtime_error when the process is gone or /proc is unreadable.
[[nodiscard]] ProcessSample sample_process(pid_t pid);

struct GroupDelta {
  double cpu_ms = 0;
  std::uint64_t voluntary_switches = 0;
};

// Per-group change between two samples of one process. Threads born in
// between count from zero; threads that exited in between are lost (their
// CPU still shows in the process-wide cpu_ms).
[[nodiscard]] std::map<std::string, GroupDelta> group_deltas(const ProcessSample& before,
                                                             const ProcessSample& after);

// Host-wide CPU time counters from /proc/stat (clock ticks, all CPUs).
struct HostCpu {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
[[nodiscard]] HostCpu sample_host_cpu();

// This process's own user + system CPU time.
[[nodiscard]] double self_cpu_ms();

}  // namespace clusterbench

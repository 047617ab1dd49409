// Multi-process shard dispatcher: the supervisor/worker execution mode
// behind `tsc_run --dispatch N`.
//
// PR 7's in-process fault tolerance has one structural hole, documented in
// docs/fault_tolerance.md: a genuinely wedged shard THREAD cannot be killed
// portably, so a pathological cell surrenders pool workers until the pool
// starves.  Process isolation closes it the way real measurement fleets do:
//
//   * The supervisor (`tsc_run --dispatch N`) forks N worker subprocesses
//     of the same binary and leases shards to them over pipes, one lease
//     per worker at a time.  Workers run the experiment code themselves -
//     that is how they possess the shard closures - and stream each
//     completed shard's exact encoded payload (the ProfileCodec checkpoint
//     bytes, FNV-1a checksummed) back over their pipe.
//   * A worker past its `--watchdog-ms` lease deadline is SIGKILLed - the
//     kill-based watchdog the in-process path cannot have - and its shard
//     re-queued.  A crashed worker (SIGSEGV / SIGABRT / OOM kill) becomes a
//     retriable shard failure, not campaign death.  Retries wait out a
//     deterministic exponential backoff (runner/fault.h, a pure function of
//     shard and attempt).  Heartbeats over the control channel track
//     liveness; a worker silent past the heartbeat budget is reclaimed too.
//   * When worker processes repeatedly fail to spawn, the supervisor
//     degrades gracefully: it falls back to the in-process FtSession path
//     with a warning instead of dying.
//
// Byte-identity invariant: the merged output equals a single-process run
// BIT FOR BIT, for any worker count, crash pattern or retry history.  The
// shard planner's splittable seeds make every shard a pure function of its
// index; payloads round-trip exactly; the supervisor merges in shard-index
// order.  A worker that finishes a stage parks on it.  The supervisor sends
// it the stage's complete payload vector (StageDone) only when it has to
// continue: at the start of the supervisor's next stage, or when a
// respawned worker re-announces a stage that is already done.  It then
// proceeds exactly like a resumed single-process run would.  After the last
// stage, parked workers get Shutdown instead, so a single-stage campaign
// never copies or pipes its payloads back to the workers.
//
// Wire protocol (little-endian, layered on ByteWriter/ByteReader):
//
//   frame    := u32 length, body[length]
//   body     := u8 MsgType, fields...
//   worker -> supervisor:
//     Hello      worker_id
//     StageReady stage, count          (worker reached run_stage(stage))
//     Result     stage, count, task, attempt, payload, fnv1a64(payload)
//     TaskFailed stage, count, task, attempt, reason
//     Heartbeat  (empty; from a dedicated thread every heartbeat_ms)
//   supervisor -> worker:
//     Lease      stage, task, attempt
//     StageDone  stage, count, records[(task, payload)...]
//     Shutdown   (empty; worker exits 0)
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/types.h>

#include "runner/checkpoint.h"

namespace tsc::runner {

class DispatchError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown inside a worker when the supervisor orders Shutdown or its pipe
/// reaches EOF (supervisor death).  The worker entry point in tsc_run
/// catches it and exits 0 - it is an orderly end, not a failure.
class WorkerShutdown : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class MsgType : std::uint8_t {
  kHello = 1,
  kStageReady = 2,
  kResult = 3,
  kTaskFailed = 4,
  kHeartbeat = 5,
  kLease = 6,
  kStageDone = 7,
  kShutdown = 8,
};

/// Hard ceiling on a single frame, so a desynchronized or garbage stream
/// fails loudly instead of attempting a multi-gigabyte allocation.
inline constexpr std::uint64_t kMaxFrameBytes = 1ULL << 30;

/// Write one length-prefixed frame to `fd` (EINTR-safe, blocking).
/// Throws DispatchError on write failure (EPIPE: the peer died).
void send_frame(int fd, const std::vector<std::uint8_t>& body);

/// Incremental frame decoder over an arbitrary byte stream: feed() raw
/// reads, next() yields complete frame bodies in order.
class FrameParser {
 public:
  void feed(const std::uint8_t* data, std::size_t n);
  /// Move the next complete frame body into `body`; false if none yet.
  [[nodiscard]] bool next(std::vector<std::uint8_t>& body);

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t consumed_ = 0;
};

/// Supervisor-side dispatch configuration, assembled by tsc_run.
struct DispatchOptions {
  int processes = 2;              ///< worker subprocess count (--dispatch N)
  std::uint64_t heartbeat_ms = 250;  ///< worker heartbeat cadence; 0 = off
  std::string exe;                ///< worker executable (self, or the
                                  ///< TSC_DISPATCH_EXE test override)
  std::vector<std::string> worker_args;  ///< common worker argv tail
  /// Worker respawn budget across the whole campaign; <0 = the default
  /// 2*processes+6.  Once spent, lost workers stay lost; at zero live
  /// workers the supervisor degrades to the in-process path.
  int max_respawns = -1;
};

/// The supervisor: an FtSession whose run_stage leases shards to worker
/// subprocesses instead of pool threads.  Construction is cheap; workers
/// are spawned on the first run_stage call (and respawned on death while
/// the budget lasts).  The destructor shuts workers down (Shutdown frame,
/// then SIGKILL for stragglers) and reaps them.
class DispatchSupervisorSession : public FtSession {
 public:
  DispatchSupervisorSession(FtOptions options, std::string experiment,
                            std::string fingerprint, DispatchOptions dispatch);
  ~DispatchSupervisorSession() override;

  [[nodiscard]] std::vector<std::optional<std::vector<std::uint8_t>>>
  run_stage(const std::string& stage, ThreadPool& pool, std::size_t count,
            const std::function<std::vector<std::uint8_t>(std::size_t)>&
                run_encoded) override;

  /// True once repeated spawn failures forced the in-process fallback.
  [[nodiscard]] bool degraded() const { return degraded_; }
  /// Workers SIGKILLed by the watchdog / heartbeat monitor (telemetry).
  [[nodiscard]] std::size_t workers_killed() const { return workers_killed_; }
  /// Workers that died on their own - crash, OOM kill, spawn failure.
  [[nodiscard]] std::size_t workers_lost() const { return workers_lost_; }

 private:
  struct Worker;

  void ensure_workers();
  [[nodiscard]] bool spawn_worker();
  /// SIGKILL `w`, then take the lose_worker path.
  void kill_worker(Worker& w, const std::string& why);
  /// A worker is gone (EOF, reaped, killed, write failure): reap it, count
  /// it, requeue its lease as a failed attempt, respawn while the budget
  /// lasts, and degrade when workers cannot be kept alive.
  void lose_worker(Worker& w, const std::string& why, bool killed);
  /// Drain one read's worth of frames from `w`; protocol errors kill it.
  void read_worker(Worker& w);
  void shutdown_workers();
  void enter_degraded(const std::string& why);
  void handle_frame(Worker& w, const std::vector<std::uint8_t>& body);
  /// The StageDone frame of completed stage `stage`, built from the
  /// records the session keeps (`keep_record`).
  [[nodiscard]] std::vector<std::uint8_t> stage_done_frame(
      const std::string& stage, std::size_t count) const;
  /// Send StageDone to every live worker parked on a completed stage, so
  /// it continues into the stage the supervisor is starting.
  void release_parked_workers();
  /// Retry bookkeeping for one failed shard attempt: requeue after the
  /// deterministic backoff, record incomplete (--allow-partial), or set the
  /// stage's abort error and start draining.
  void task_attempt_failed(std::size_t task, int attempt,
                           const std::string& why);
  [[nodiscard]] std::size_t alive_count() const;

  DispatchOptions dispatch_;
  std::vector<std::unique_ptr<Worker>> workers_;
  /// Completed stages and their task counts.  Their StageDone frames are
  /// built on demand for parked workers and for respawned workers that
  /// re-run the experiment from the top.
  std::map<std::string, std::size_t> done_stages_;
  int respawns_left_ = 0;
  int consecutive_spawn_failures_ = 0;
  int next_worker_id_ = 0;
  bool degraded_ = false;
  bool spawned_once_ = false;
  std::size_t workers_killed_ = 0;
  std::size_t workers_lost_ = 0;

  // Per-stage state, owned by the active run_stage call and routed to
  // handle_frame through these members (the event loop is single-threaded).
  struct StageState;
  StageState* stage_ = nullptr;
};

/// The worker: an FtSession whose run_stage is a lease client.  It
/// announces each stage, computes leased shards via `run_encoded`, streams
/// payloads back, and returns the payload vector of the supervisor's
/// StageDone so the experiment code proceeds exactly as in a resumed
/// single-process run.  Runs a heartbeat thread for the life of the
/// session.
class DispatchWorkerSession : public FtSession {
 public:
  /// `read_fd`/`write_fd` are the pipe ends passed via --dispatch-worker.
  DispatchWorkerSession(FtOptions options, std::string experiment,
                        std::string fingerprint, int read_fd, int write_fd,
                        int worker_id, std::uint64_t heartbeat_ms);
  ~DispatchWorkerSession() override;

  [[nodiscard]] std::vector<std::optional<std::vector<std::uint8_t>>>
  run_stage(const std::string& stage, ThreadPool& pool, std::size_t count,
            const std::function<std::vector<std::uint8_t>(std::size_t)>&
                run_encoded) override;

 private:
  void send_locked(const std::vector<std::uint8_t>& body);
  /// Block until one complete frame arrives; throws WorkerShutdown on EOF.
  [[nodiscard]] std::vector<std::uint8_t> read_frame();

  int read_fd_;
  int write_fd_;
  int worker_id_;
  FrameParser parser_;
  std::mutex write_mutex_;  ///< serializes heartbeats against results
  std::thread heartbeat_;
  std::mutex hb_mutex_;
  std::condition_variable hb_cv_;
  bool stopping_ = false;
};

}  // namespace tsc::runner

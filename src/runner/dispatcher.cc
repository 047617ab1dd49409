#include "runner/dispatcher.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <thread>

namespace tsc::runner {
namespace {

using Clock = std::chrono::steady_clock;

std::vector<std::uint8_t> make_msg(MsgType type) {
  return {static_cast<std::uint8_t>(type)};
}

std::string describe_exit(int status) {
  if (WIFEXITED(status)) {
    return "exited with status " + std::to_string(WEXITSTATUS(status));
  }
  if (WIFSIGNALED(status)) {
    return "killed by signal " + std::to_string(WTERMSIG(status));
  }
  return "ended with wait status " + std::to_string(status);
}

}  // namespace

// --- framing -----------------------------------------------------------------

void send_frame(int fd, const std::vector<std::uint8_t>& body) {
  if (body.size() > kMaxFrameBytes) {
    throw DispatchError("refusing to send oversized control frame (" +
                        std::to_string(body.size()) + " bytes)");
  }
  const auto write_all = [fd](const std::uint8_t* data, std::size_t len) {
    std::size_t done = 0;
    while (done < len) {
      const ssize_t n = ::write(fd, data + done, len - done);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw DispatchError(std::string("control-channel write failed: ") +
                            std::strerror(errno));
      }
      done += static_cast<std::size_t>(n);
    }
  };
  const auto len = static_cast<std::uint32_t>(body.size());
  std::uint8_t head[4];
  for (int i = 0; i < 4; ++i) {
    head[i] = static_cast<std::uint8_t>(len >> (8 * i));
  }
  write_all(head, sizeof(head));
  write_all(body.data(), body.size());
}

void FrameParser::feed(const std::uint8_t* data, std::size_t n) {
  if (consumed_ == buf_.size()) {
    buf_.clear();
    consumed_ = 0;
  } else if (consumed_ > (1U << 20)) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(
                                                consumed_));
    consumed_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

bool FrameParser::next(std::vector<std::uint8_t>& body) {
  const std::size_t avail = buf_.size() - consumed_;
  if (avail < 4) return false;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(buf_[consumed_ + static_cast<std::size_t>(
                                                           i)])
           << (8 * i);
  }
  if (len > kMaxFrameBytes) {
    throw DispatchError("oversized control frame (" + std::to_string(len) +
                        " bytes) - desynchronized stream");
  }
  if (avail < 4 + static_cast<std::size_t>(len)) return false;
  const auto begin =
      buf_.begin() + static_cast<std::ptrdiff_t>(consumed_ + 4);
  body.assign(begin, begin + static_cast<std::ptrdiff_t>(len));
  consumed_ += 4 + static_cast<std::size_t>(len);
  return true;
}

// --- supervisor --------------------------------------------------------------

struct DispatchSupervisorSession::Worker {
  pid_t pid = -1;
  int rfd = -1;  ///< supervisor reads the worker's output here
  int wfd = -1;  ///< supervisor writes leases / broadcasts here
  int id = -1;
  FrameParser parser;
  bool alive = true;
  bool hello = false;        ///< handshake received (spawn succeeded)
  bool ready = false;        ///< announced a stage and awaits lease/StageDone
  std::string ready_stage;
  bool has_lease = false;
  std::size_t lease_task = 0;
  int lease_attempt = 0;
  Clock::time_point lease_deadline = Clock::time_point::max();
  Clock::time_point last_seen = Clock::now();
};

struct DispatchSupervisorSession::StageState {
  std::string name;
  std::size_t count = 0;
  std::vector<std::optional<std::vector<std::uint8_t>>>* payloads = nullptr;
  struct Pending {
    std::size_t task = 0;
    int attempt = 0;
    Clock::time_point eligible;  ///< backoff: not leased before this
  };
  std::vector<Pending> pending;
  std::size_t unresolved = 0;  ///< tasks neither completed nor given up
  bool draining = false;       ///< interrupt or abort: no new leases
  Clock::time_point drain_deadline = Clock::time_point::max();
  std::exception_ptr abort_error;
};

DispatchSupervisorSession::DispatchSupervisorSession(FtOptions options,
                                                     std::string experiment,
                                                     std::string fingerprint,
                                                     DispatchOptions dispatch)
    : FtSession(std::move(options), std::move(experiment),
                std::move(fingerprint)),
      dispatch_(std::move(dispatch)) {
  // A worker dying mid-write must surface as EPIPE, not kill the campaign.
  (void)std::signal(SIGPIPE, SIG_IGN);
}

DispatchSupervisorSession::~DispatchSupervisorSession() {
  try {
    shutdown_workers();
  } catch (...) {  // NOLINT(bugprone-empty-catch): destructors must not throw
  }
}

std::size_t DispatchSupervisorSession::alive_count() const {
  std::size_t n = 0;
  for (const auto& w : workers_) {
    if (w->alive) ++n;
  }
  return n;
}

bool DispatchSupervisorSession::spawn_worker() {
  int to_worker[2] = {-1, -1};    // supervisor -> worker
  int from_worker[2] = {-1, -1};  // worker -> supervisor
  if (::pipe2(to_worker, O_CLOEXEC) != 0) {
    ++consecutive_spawn_failures_;
    std::fprintf(stderr, "[dispatch] pipe for worker failed: %s\n",
                 std::strerror(errno));
    return false;
  }
  if (::pipe2(from_worker, O_CLOEXEC) != 0) {
    ++consecutive_spawn_failures_;
    std::fprintf(stderr, "[dispatch] pipe for worker failed: %s\n",
                 std::strerror(errno));
    (void)::close(to_worker[0]);
    (void)::close(to_worker[1]);
    return false;
  }

  const int id = next_worker_id_++;
  // argv assembled BEFORE fork: between fork and exec only
  // async-signal-safe calls are legal (the supervisor is multithreaded).
  std::vector<std::string> argv_store;
  argv_store.push_back(dispatch_.exe);
  for (const std::string& arg : dispatch_.worker_args) {
    argv_store.push_back(arg);
  }
  argv_store.emplace_back("--worker-id");
  argv_store.push_back(std::to_string(id));
  argv_store.emplace_back("--dispatch-worker");
  argv_store.push_back(std::to_string(to_worker[0]) + "," +
                       std::to_string(from_worker[1]));
  std::vector<char*> argv;
  argv.reserve(argv_store.size() + 1);
  for (std::string& arg : argv_store) {
    argv.push_back(arg.data());
  }
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    ++consecutive_spawn_failures_;
    std::fprintf(stderr, "[dispatch] fork failed: %s\n", std::strerror(errno));
    (void)::close(to_worker[0]);
    (void)::close(to_worker[1]);
    (void)::close(from_worker[0]);
    (void)::close(from_worker[1]);
    return false;
  }
  if (pid == 0) {
    // Child: hand the two pipe ends across exec (everything else is
    // O_CLOEXEC), then become the worker.  exec failure -> _exit(127),
    // which the supervisor counts as a spawn failure.
    (void)::fcntl(to_worker[0], F_SETFD, 0);
    (void)::fcntl(from_worker[1], F_SETFD, 0);
    (void)::execv(argv_store[0].c_str(), argv.data());
    ::_exit(127);
  }
  (void)::close(to_worker[0]);
  (void)::close(from_worker[1]);

  auto w = std::make_unique<Worker>();
  w->pid = pid;
  w->rfd = from_worker[0];
  w->wfd = to_worker[1];
  w->id = id;
  w->last_seen = Clock::now();
  workers_.push_back(std::move(w));
  return true;
}

void DispatchSupervisorSession::ensure_workers() {
  if (spawned_once_ || degraded_) return;
  spawned_once_ = true;
  respawns_left_ = dispatch_.max_respawns >= 0 ? dispatch_.max_respawns
                                               : 2 * dispatch_.processes + 6;
  for (int i = 0; i < dispatch_.processes && !degraded_; ++i) {
    if (!spawn_worker() && consecutive_spawn_failures_ >= 3) {
      enter_degraded("worker spawn failed 3 times in a row");
      return;
    }
  }
  if (!degraded_ && alive_count() == 0) {
    enter_degraded("no worker subprocess could be spawned");
  }
}

void DispatchSupervisorSession::enter_degraded(const std::string& why) {
  if (degraded_) return;
  degraded_ = true;
  std::fprintf(stderr,
               "[dispatch] DEGRADED: %s - falling back to the in-process "
               "fault-tolerant path\n",
               why.c_str());
  shutdown_workers();
  if (fault_kind_is_process_fatal(options_.fault.kind)) {
    std::fprintf(stderr,
                 "[dispatch] disarming process-fatal --inject-fault kind=%s "
                 "for the in-process fallback\n",
                 to_string(options_.fault.kind));
    options_.fault = FaultSpec{};
    injector_.disarm();
  }
}

void DispatchSupervisorSession::task_attempt_failed(std::size_t task,
                                                    int attempt,
                                                    const std::string& why) {
  if (stage_ == nullptr) return;
  StageState& st = *stage_;
  ++failed_attempts_;
  if (attempt + 1 < options_.max_attempts) {
    const std::uint64_t delay =
        backoff_delay_ms(options_.backoff, task, attempt + 1);
    std::fprintf(stderr,
                 "[dispatch] %s/%zu attempt %d failed (%s); retrying in "
                 "%llu ms\n",
                 st.name.c_str(), task, attempt, why.c_str(),
                 static_cast<unsigned long long>(delay));
    st.pending.push_back(
        {task, attempt + 1,
         Clock::now() + std::chrono::milliseconds(delay)});
    return;
  }
  if (options_.allow_partial) {
    std::fprintf(stderr,
                 "[dispatch] %s/%zu exhausted %d attempts (%s); recording as "
                 "incomplete\n",
                 st.name.c_str(), task, options_.max_attempts, why.c_str());
    incomplete_.push_back({st.name, task, why});
    --st.unresolved;
    return;
  }
  if (!st.abort_error) {
    st.abort_error = std::make_exception_ptr(CampaignAborted(
        "shard " + st.name + "/" + std::to_string(task) + " failed after " +
        std::to_string(options_.max_attempts) + " attempts: " + why));
  }
  st.draining = true;
  st.drain_deadline =
      Clock::now() + std::chrono::milliseconds(
                         options_.watchdog_ms > 0 ? 2 * options_.watchdog_ms
                                                  : 10'000);
}

void DispatchSupervisorSession::kill_worker(Worker& w, const std::string& why) {
  if (!w.alive) return;
  if (w.pid > 0) (void)::kill(w.pid, SIGKILL);
  lose_worker(w, why, /*killed=*/true);
}

void DispatchSupervisorSession::lose_worker(Worker& w, const std::string& why,
                                            bool killed) {
  if (!w.alive) return;
  w.alive = false;
  w.ready = false;
  if (w.rfd >= 0) {
    (void)::close(w.rfd);
    w.rfd = -1;
  }
  if (w.wfd >= 0) {
    (void)::close(w.wfd);
    w.wfd = -1;
  }
  if (w.pid > 0) {
    // Bounded reap: pipe EOF can precede process exit by a moment.
    int status = 0;
    for (int i = 0; i < 400; ++i) {
      const pid_t r = ::waitpid(w.pid, &status, WNOHANG);
      if (r == w.pid || (r < 0 && errno == ECHILD)) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    w.pid = -1;
  }
  if (killed) {
    ++workers_killed_;
  } else {
    ++workers_lost_;
  }
  if (!w.hello) {
    ++consecutive_spawn_failures_;
    std::fprintf(stderr,
                 "[dispatch] worker %d died before handshake (%s) - spawn "
                 "failure %d in a row\n",
                 w.id, why.c_str(), consecutive_spawn_failures_);
  } else {
    std::fprintf(stderr, "[dispatch] worker %d lost: %s\n", w.id, why.c_str());
  }
  if (w.has_lease) {
    const std::size_t task = w.lease_task;
    const int attempt = w.lease_attempt;
    w.has_lease = false;
    task_attempt_failed(task, attempt, "worker " + std::to_string(w.id) +
                                           " " + why);
  }
  if (degraded_) return;
  if (consecutive_spawn_failures_ >= 3) {
    enter_degraded("worker spawn failed 3 times in a row");
    return;
  }
  if (respawns_left_ > 0) {
    --respawns_left_;
    (void)spawn_worker();
    if (consecutive_spawn_failures_ >= 3) {
      enter_degraded("worker spawn failed 3 times in a row");
      return;
    }
  }
  if (alive_count() == 0) {
    enter_degraded("no live workers remain and the respawn budget is spent");
  }
}

void DispatchSupervisorSession::handle_frame(
    Worker& w, const std::vector<std::uint8_t>& body) {
  if (body.empty()) throw DispatchError("empty control frame from worker");
  ByteReader r(body);
  const auto type = static_cast<MsgType>(r.u8());
  w.last_seen = Clock::now();
  switch (type) {
    case MsgType::kHello: {
      (void)r.varint();  // worker id, also carried in the argv we built
      w.hello = true;
      consecutive_spawn_failures_ = 0;
      return;
    }
    case MsgType::kHeartbeat:
      return;
    case MsgType::kStageReady: {
      const std::string stage = r.string();
      (void)r.varint();  // count; re-validated against Result frames
      const auto done = done_stages_.find(stage);
      if (done != done_stages_.end()) {
        // A respawned worker re-running the experiment from the top:
        // replay the completed stage so it catches up without recompute.
        send_frame(w.wfd, stage_done_frame(stage, done->second));
        w.ready = false;
        return;
      }
      w.ready = true;
      w.ready_stage = stage;
      return;
    }
    case MsgType::kResult: {
      const std::string stage = r.string();
      const auto count = static_cast<std::size_t>(r.varint());
      const auto task = static_cast<std::size_t>(r.varint());
      const auto attempt = static_cast<int>(r.varint());
      const auto size = static_cast<std::size_t>(r.varint());
      const std::uint8_t* data = r.bytes(size);
      std::vector<std::uint8_t> payload(data, data + size);
      const std::uint64_t sum = r.fixed64();
      if (w.has_lease && w.lease_task == task) {
        w.has_lease = false;
        w.lease_deadline = Clock::time_point::max();
      }
      if (stage_ == nullptr || stage != stage_->name) return;  // stale
      if (count != stage_->count || task >= stage_->count) {
        throw DispatchError("result outside the stage's shard plan");
      }
      if (fnv1a64(payload.data(), payload.size()) != sum) {
        task_attempt_failed(task, attempt, "payload checksum mismatch");
        return;
      }
      auto& slot = (*stage_->payloads)[task];
      if (slot) return;  // duplicate: leases are exclusive, but be safe
      note_completed(stage_->name, stage_->count, task, payload,
                     /*keep_record=*/true);
      slot = std::move(payload);
      --stage_->unresolved;
      return;
    }
    case MsgType::kTaskFailed: {
      const std::string stage = r.string();
      (void)r.varint();  // count
      const auto task = static_cast<std::size_t>(r.varint());
      const auto attempt = static_cast<int>(r.varint());
      const std::string reason = r.string();
      if (w.has_lease && w.lease_task == task) {
        w.has_lease = false;
        w.lease_deadline = Clock::time_point::max();
      }
      if (stage_ == nullptr || stage != stage_->name) return;
      task_attempt_failed(task, attempt, reason);
      return;
    }
    case MsgType::kLease:
    case MsgType::kStageDone:
    case MsgType::kShutdown:
      break;
  }
  throw DispatchError("unexpected message type from worker");
}

void DispatchSupervisorSession::read_worker(Worker& w) {
  std::uint8_t buf[16384];
  const ssize_t n = ::read(w.rfd, buf, sizeof(buf));
  if (n == 0) {
    lose_worker(w, "closed its control channel", /*killed=*/false);
    return;
  }
  if (n < 0) {
    if (errno == EINTR || errno == EAGAIN) return;
    lose_worker(w,
                std::string("control-channel read failed: ") +
                    std::strerror(errno),
                /*killed=*/false);
    return;
  }
  w.parser.feed(buf, static_cast<std::size_t>(n));
  try {
    std::vector<std::uint8_t> body;
    while (w.alive && w.parser.next(body)) {
      handle_frame(w, body);
    }
  } catch (const std::exception& e) {
    kill_worker(w, std::string("protocol error: ") + e.what());
  }
}

std::vector<std::uint8_t> DispatchSupervisorSession::stage_done_frame(
    const std::string& stage, std::size_t count) const {
  ByteWriter msg;
  msg.put_u8(static_cast<std::uint8_t>(MsgType::kStageDone));
  msg.put_string(stage);
  msg.put_varint(count);
  const Checkpoint::Records& records = checkpoint_.records(stage);
  msg.put_varint(records.size());
  for (const auto& [task, payload] : records) {
    msg.put_varint(task);
    msg.put_varint(payload.size());
    msg.put_bytes(payload.data(), payload.size());
  }
  return std::move(msg).take();
}

void DispatchSupervisorSession::release_parked_workers() {
  std::map<std::string, std::vector<std::uint8_t>> frames;
  // Indexed: a lost worker's respawn appends to workers_.
  for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
    Worker& w = *workers_[wi];
    if (!w.alive || !w.ready) continue;
    const auto done = done_stages_.find(w.ready_stage);
    if (done == done_stages_.end()) continue;
    auto frame = frames.find(done->first);
    if (frame == frames.end()) {
      frame = frames
                  .emplace(done->first,
                           stage_done_frame(done->first, done->second))
                  .first;
    }
    try {
      send_frame(w.wfd, frame->second);
      w.ready = false;
    } catch (const DispatchError& e) {
      lose_worker(w, std::string("StageDone write failed: ") + e.what(),
                  /*killed=*/false);
    }
  }
}

std::vector<std::optional<std::vector<std::uint8_t>>>
DispatchSupervisorSession::run_stage(
    const std::string& stage, ThreadPool& pool, std::size_t count,
    const std::function<std::vector<std::uint8_t>(std::size_t)>&
        run_encoded) {
  if (degraded_) return FtSession::run_stage(stage, pool, count, run_encoded);
  ensure_workers();
  release_parked_workers();
  if (degraded_) return FtSession::run_stage(stage, pool, count, run_encoded);

  std::vector<std::optional<std::vector<std::uint8_t>>> payloads(count);
  StageState st;
  st.name = stage;
  st.count = count;
  st.payloads = &payloads;
  for (std::size_t i = 0; i < count; ++i) {
    if (const std::vector<std::uint8_t>* rec =
            checkpoint_.find(stage, count, i)) {
      payloads[i] = *rec;
    } else {
      st.pending.push_back({i, 0, Clock::time_point::min()});
      ++st.unresolved;
    }
  }
  stage_ = &st;

  while (true) {
    if (degraded_) {
      stage_ = nullptr;
      return FtSession::run_stage(stage, pool, count, run_encoded);
    }
    if (interrupt_requested() && !st.draining) {
      st.draining = true;
      st.drain_deadline =
          Clock::now() + std::chrono::milliseconds(
                             options_.watchdog_ms > 0
                                 ? 2 * options_.watchdog_ms
                                 : 10'000);
    }
    bool any_lease = false;
    for (const auto& wp : workers_) {
      if (wp->alive && wp->has_lease) any_lease = true;
    }
    if (!st.draining && st.unresolved == 0) break;
    if (st.draining && !any_lease) break;

    const Clock::time_point now = Clock::now();

    // Lease eligible shards (lowest index first) to idle, ready workers.
    if (!st.draining) {
      for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
        Worker& w = *workers_[wi];
        if (!w.alive || !w.hello || !w.ready || w.ready_stage != stage ||
            w.has_lease) {
          continue;
        }
        std::size_t best = st.pending.size();
        for (std::size_t j = 0; j < st.pending.size(); ++j) {
          if (st.pending[j].eligible <= now &&
              (best == st.pending.size() ||
               st.pending[j].task < st.pending[best].task)) {
            best = j;
          }
        }
        if (best == st.pending.size()) break;  // nothing eligible yet
        const StageState::Pending p = st.pending[best];
        st.pending.erase(st.pending.begin() +
                         static_cast<std::ptrdiff_t>(best));
        ByteWriter msg;
        msg.put_u8(static_cast<std::uint8_t>(MsgType::kLease));
        msg.put_string(stage);
        msg.put_varint(p.task);
        msg.put_varint(static_cast<std::uint64_t>(p.attempt));
        try {
          send_frame(w.wfd, msg.bytes());
        } catch (const DispatchError& e) {
          st.pending.push_back(p);  // not the shard's fault: same attempt
          lose_worker(w, std::string("lease write failed: ") + e.what(),
                      /*killed=*/false);
          continue;
        }
        w.has_lease = true;
        w.lease_task = p.task;
        w.lease_attempt = p.attempt;
        w.lease_deadline =
            options_.watchdog_ms > 0
                ? now + std::chrono::milliseconds(options_.watchdog_ms)
                : Clock::time_point::max();
      }
    }

    // Poll worker pipes for results, failures, announcements, heartbeats.
    std::vector<pollfd> fds;
    std::vector<Worker*> fd_workers;
    for (const auto& wp : workers_) {
      if (!wp->alive) continue;
      fds.push_back({wp->rfd, POLLIN, 0});
      fd_workers.push_back(wp.get());
    }
    if (fds.empty()) {
      enter_degraded("no live workers");
      continue;
    }
    (void)::poll(fds.data(), static_cast<nfds_t>(fds.size()), 20);
    for (std::size_t i = 0; i < fds.size(); ++i) {
      Worker& w = *fd_workers[i];
      if (!w.alive) continue;
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        read_worker(w);
      }
    }

    // Reap workers that died without a clean pipe close.
    for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
      Worker& w = *workers_[wi];
      if (!w.alive || w.pid <= 0) continue;
      int status = 0;
      if (::waitpid(w.pid, &status, WNOHANG) == w.pid) {
        w.pid = -1;
        lose_worker(w, describe_exit(status), /*killed=*/false);
      }
    }

    // Kill-based watchdog and heartbeat-silence monitor.
    const Clock::time_point after = Clock::now();
    for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
      Worker& w = *workers_[wi];
      if (!w.alive) continue;
      if (w.has_lease && after >= w.lease_deadline) {
        kill_worker(w, "watchdog: lease deadline exceeded (" +
                           std::to_string(options_.watchdog_ms) + " ms)");
        continue;
      }
      if (dispatch_.heartbeat_ms > 0 && w.hello &&
          after - w.last_seen >
              std::chrono::milliseconds(8 * dispatch_.heartbeat_ms)) {
        kill_worker(w, "silent past the heartbeat budget");
      }
    }

    if (st.draining && after >= st.drain_deadline) {
      for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
        Worker& w = *workers_[wi];
        if (w.alive && w.has_lease) {
          w.has_lease = false;  // drop, don't requeue: we are leaving
          kill_worker(w, "drain deadline exceeded");
        }
      }
    }
  }

  const std::exception_ptr abort_error = st.abort_error;
  if (abort_error || interrupt_requested()) {
    stage_ = nullptr;
    if (unflushed_ > 0) flush();
    shutdown_workers();
    if (abort_error) std::rethrow_exception(abort_error);
    throw Interrupted(
        !options_.checkpoint_path.empty()
            ? "campaign interrupted; checkpoint flushed, rerun with --resume"
            : "campaign interrupted (no --checkpoint: progress discarded)");
  }

  done_stages_.emplace(stage, count);
  stage_ = nullptr;
  if (unflushed_ > 0) flush();
  return payloads;
}

void DispatchSupervisorSession::shutdown_workers() {
  const std::vector<std::uint8_t> bye = make_msg(MsgType::kShutdown);
  for (auto& wp : workers_) {
    Worker& w = *wp;
    if (!w.alive || w.wfd < 0) continue;
    try {
      send_frame(w.wfd, bye);
    } catch (const DispatchError&) {
      // Already gone; the reap below handles it.
    }
  }
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(2'000);
  for (auto& wp : workers_) {
    Worker& w = *wp;
    if (!w.alive) continue;
    int status = 0;
    bool reaped = false;
    while (Clock::now() < deadline) {
      const pid_t r = ::waitpid(w.pid, &status, WNOHANG);
      if (r == w.pid || (r < 0 && errno == ECHILD)) {
        reaped = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!reaped && w.pid > 0) {
      (void)::kill(w.pid, SIGKILL);
      (void)::waitpid(w.pid, &status, 0);
    }
    if (w.rfd >= 0) (void)::close(w.rfd);
    if (w.wfd >= 0) (void)::close(w.wfd);
    w.rfd = w.wfd = -1;
    w.pid = -1;
    w.alive = false;
    w.has_lease = false;
  }
}

// --- worker ------------------------------------------------------------------

DispatchWorkerSession::DispatchWorkerSession(FtOptions options,
                                             std::string experiment,
                                             std::string fingerprint,
                                             int read_fd, int write_fd,
                                             int worker_id,
                                             std::uint64_t heartbeat_ms)
    : FtSession(std::move(options), std::move(experiment),
                std::move(fingerprint)),
      read_fd_(read_fd),
      write_fd_(write_fd),
      worker_id_(worker_id) {
  (void)std::signal(SIGPIPE, SIG_IGN);
  ByteWriter hello;
  hello.put_u8(static_cast<std::uint8_t>(MsgType::kHello));
  hello.put_varint(static_cast<std::uint64_t>(worker_id_));
  send_locked(hello.bytes());
  if (heartbeat_ms > 0) {
    heartbeat_ = std::thread([this, heartbeat_ms] {
      const std::vector<std::uint8_t> beat = make_msg(MsgType::kHeartbeat);
      std::unique_lock<std::mutex> lock(hb_mutex_);
      while (!stopping_) {
        if (hb_cv_.wait_for(lock, std::chrono::milliseconds(heartbeat_ms),
                            [this] { return stopping_; })) {
          break;
        }
        lock.unlock();
        try {
          send_locked(beat);
        } catch (const DispatchError&) {
          // Supervisor is gone; the main thread's read sees EOF and exits.
        }
        lock.lock();
      }
    });
  }
}

DispatchWorkerSession::~DispatchWorkerSession() {
  {
    const std::lock_guard<std::mutex> lock(hb_mutex_);
    stopping_ = true;
  }
  hb_cv_.notify_all();
  if (heartbeat_.joinable()) heartbeat_.join();
  if (read_fd_ >= 0) (void)::close(read_fd_);
  if (write_fd_ >= 0) (void)::close(write_fd_);
}

void DispatchWorkerSession::send_locked(const std::vector<std::uint8_t>& body) {
  const std::lock_guard<std::mutex> lock(write_mutex_);
  send_frame(write_fd_, body);
}

std::vector<std::uint8_t> DispatchWorkerSession::read_frame() {
  std::vector<std::uint8_t> body;
  while (true) {
    if (parser_.next(body)) return body;
    std::uint8_t buf[16384];
    const ssize_t n = ::read(read_fd_, buf, sizeof(buf));
    if (n == 0) {
      throw WorkerShutdown("supervisor closed the control channel");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      throw DispatchError(std::string("control-channel read failed: ") +
                          std::strerror(errno));
    }
    parser_.feed(buf, static_cast<std::size_t>(n));
  }
}

std::vector<std::optional<std::vector<std::uint8_t>>>
DispatchWorkerSession::run_stage(
    const std::string& stage, ThreadPool& /*pool*/, std::size_t count,
    const std::function<std::vector<std::uint8_t>(std::size_t)>&
        run_encoded) {
  {
    ByteWriter msg;
    msg.put_u8(static_cast<std::uint8_t>(MsgType::kStageReady));
    msg.put_string(stage);
    msg.put_varint(count);
    send_locked(msg.bytes());
  }
  while (true) {
    const std::vector<std::uint8_t> body = read_frame();
    if (body.empty()) throw DispatchError("empty control frame");
    ByteReader r(body);
    const auto type = static_cast<MsgType>(r.u8());
    switch (type) {
      case MsgType::kLease: {
        const std::string lease_stage = r.string();
        const auto task = static_cast<std::size_t>(r.varint());
        const auto attempt = static_cast<int>(r.varint());
        if (lease_stage != stage || task >= count) {
          throw DispatchError("lease outside the announced stage");
        }
        try {
          injector_.on_task_start(task, attempt);
          std::vector<std::uint8_t> payload = run_encoded(task);
          // Checksum the pristine payload FIRST: an injected corruption
          // then guarantees a supervisor-side verification failure.
          const std::uint64_t sum =
              fnv1a64(payload.data(), payload.size());
          (void)injector_.maybe_corrupt(task, attempt, payload);
          ByteWriter msg;
          msg.put_u8(static_cast<std::uint8_t>(MsgType::kResult));
          msg.put_string(stage);
          msg.put_varint(count);
          msg.put_varint(task);
          msg.put_varint(static_cast<std::uint64_t>(attempt));
          msg.put_varint(payload.size());
          msg.put_bytes(payload.data(), payload.size());
          msg.put_fixed64(sum);
          send_locked(msg.bytes());
          ++completed_;
        } catch (const WorkerShutdown&) {
          throw;
        } catch (const DispatchError&) {
          throw;
        } catch (const std::exception& e) {
          ++failed_attempts_;
          ByteWriter msg;
          msg.put_u8(static_cast<std::uint8_t>(MsgType::kTaskFailed));
          msg.put_string(stage);
          msg.put_varint(count);
          msg.put_varint(task);
          msg.put_varint(static_cast<std::uint64_t>(attempt));
          msg.put_string(e.what());
          send_locked(msg.bytes());
        }
        break;
      }
      case MsgType::kStageDone: {
        const std::string done_stage = r.string();
        if (done_stage != stage) {
          throw DispatchError("StageDone for a stage we did not announce");
        }
        const auto done_count = static_cast<std::size_t>(r.varint());
        if (done_count != count) {
          throw DispatchError("StageDone count does not match the plan");
        }
        std::vector<std::optional<std::vector<std::uint8_t>>> out(count);
        const std::uint64_t records = r.varint();
        for (std::uint64_t k = 0; k < records; ++k) {
          const auto task = static_cast<std::size_t>(r.varint());
          const auto size = static_cast<std::size_t>(r.varint());
          const std::uint8_t* data = r.bytes(size);
          if (task >= count) {
            throw DispatchError("StageDone record outside the shard plan");
          }
          out[task].emplace(data, data + size);
        }
        return out;
      }
      case MsgType::kShutdown:
        throw WorkerShutdown("supervisor ordered shutdown");
      case MsgType::kHello:
      case MsgType::kStageReady:
      case MsgType::kResult:
      case MsgType::kTaskFailed:
      case MsgType::kHeartbeat:
        throw DispatchError("unexpected message type from supervisor");
    }
  }
}

}  // namespace tsc::runner

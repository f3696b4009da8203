// `pftk serve` — the overload-resilient throughput-prediction daemon.
//
// A single process listening on a local (unix-domain) stream socket,
// speaking the line protocol of serve/protocol.hpp, designed
// robustness-first around four rules:
//
//   * bounded everything — each worker shard owns a bounded request
//     queue; once its depth reaches the admission watermark the request
//     is *rejected now* with `BUSY retry_ms=<hint>` instead of buffered.
//     Line buffers are capped (TOOBIG past the cap), client count is
//     capped, and the PreparedModel cache is LRU-bounded, so offered
//     load beyond capacity cannot grow resident memory.
//   * deadlines over queues — a request's `deadline_ms` budget runs from
//     admission; expiry is checked at dequeue (before any evaluation)
//     and again before each CALIB trace slice, so stale work is shed, not
//     finished late.
//   * graceful drain — request_stop() (the CLI wires SIGINT/SIGTERM via
//     robust::ShutdownGuard) stops accepting and reading, answers every
//     already-admitted request, durably flushes metrics, and returns;
//     the CLI exits 3 per the repo-wide interrupted contract.
//   * exact accounting — every admitted request is answered exactly
//     once: requests == served + shed + deadline_missed + internal
//     (ServeTotals::accounting_ok, asserted under overload and chaos).
//
// Threading: one acceptor, one detached reader per client (bounded by
// max_clients), `shards` worker threads. Readers parse and route to a
// shard (round-robin); workers drain front-contiguous runs of MODEL
// requests sharing a (kind, RTT, T0, b, Wm) key into one
// PreparedModel::evaluate batch — the ROADMAP item-5 batching. Failpoint
// sites `serve.accept`, `serve.read`, `serve.write`, `serve.enqueue`
// make every I/O edge chaos-testable.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/prepared_cache.hpp"
#include "serve/protocol.hpp"
#include "serve/serve_metrics.hpp"

namespace pftk::serve {

struct ServeConfig {
  /// Unix-domain socket path (< 100 bytes; a stale file is replaced).
  std::string socket_path;
  int shards = 2;                    ///< worker threads / request queues
  std::size_t queue_depth = 64;      ///< admission watermark per shard
  std::size_t batch_max = 16;        ///< max same-key MODEL batch drain
  std::size_t max_line_bytes = 4096; ///< request-line cap (TOOBIG beyond)
  std::size_t max_clients = 64;      ///< concurrent connections
  /// Default relative deadline applied to requests that carry none;
  /// 0 = requests without deadline_ms never expire.
  double default_deadline_ms = 0.0;
  std::string metrics_out;           ///< durable pftk-obs/1 snapshot path
  /// Flush the metrics snapshot every N served requests (0 = only at
  /// drain). Each flush is atomic_write_file-durable, so a crash between
  /// flushes leaves the previous complete snapshot on disk.
  std::uint64_t metrics_every = 0;
  /// Deterministic per-request service-time inflation in microseconds
  /// (busy-wait). Test/bench hook: makes "sustainable load" a chosen
  /// number so overload behavior is reproducible. 0 in production.
  std::uint64_t slow_us = 0;
  /// Pre-bound listen socket to adopt instead of binding socket_path
  /// ourselves (-1 = bind). Supervised workers all adopt the one fd the
  /// parent bound, so they accept() from a shared backlog and the socket
  /// file outlives any single worker. The adopting server closes its
  /// copy of the fd on wait() but never unlinks the path.
  int listen_fd = -1;
  /// External degrade signal (e.g. the supervisor's MAP_SHARED flag).
  /// Nonzero => serve MODEL requests on the approximate eq-33 path,
  /// tagged `degraded=1`. May be null.
  const std::atomic<std::uint32_t>* degrade_flag = nullptr;
  /// Local overload degradation: when the shed fraction over the last
  /// 256 admission decisions reaches this watermark, MODEL requests
  /// switch to the eq-33 path until a later window drops back under
  /// half the watermark (hysteresis). 0 disables.
  double degrade_shed_watermark = 0.0;

  /// @throws model::ParamError on out-of-range values.
  void validate() const;
};

/// The daemon. start() spawns the threads; request_stop() begins a
/// graceful drain; wait() joins everything, writes the final durable
/// metrics snapshot, and returns the summary. The destructor stops and
/// waits if the caller has not.
class Server {
 public:
  explicit Server(ServeConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket (or adopts config.listen_fd) and launches
  /// acceptor + workers.
  /// @throws robust::IoError when the socket cannot be created/bound.
  void start();

  /// Creates, binds, and listens on a unix-domain stream socket at
  /// `path` (replacing a stale file), non-blocking so multiple
  /// processes can safely poll+accept the same fd. Returns the fd.
  /// @throws robust::IoError on failure.
  [[nodiscard]] static int bind_listener(const std::string& path);

  /// Begins graceful drain: stop accepting and reading, finish every
  /// admitted request. Idempotent, callable from any thread (not from a
  /// signal handler — poll robust::ShutdownGuard and call this instead).
  void request_stop();

  /// Joins all threads (draining queues first), flushes metrics, closes
  /// client fds. Idempotent; returns the final summary.
  ServeSummary wait();

  [[nodiscard]] bool running() const noexcept { return started_ && !joined_; }
  [[nodiscard]] const ServeConfig& config() const noexcept { return config_; }
  [[nodiscard]] ServeSummary summary() const;
  [[nodiscard]] const ServeTotals& totals() const noexcept { return totals_; }

  /// Current depth of one shard's queue (test observability).
  [[nodiscard]] std::size_t queue_size(int shard) const;

  /// Every shard's queue-wait histogram merged into one snapshot — the
  /// metrics-side cross-check of the flight recorder's serve.queue_wait
  /// spans.
  [[nodiscard]] obs::MetricValue merged_queue_wait() const;

 private:
  class ClientSession;
  struct QueuedRequest {
    Request req;
    std::shared_ptr<ClientSession> client;
    std::chrono::steady_clock::time_point admitted;
    std::chrono::steady_clock::time_point deadline;
  };
  struct Shard {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::deque<QueuedRequest> queue;
    std::thread worker;
    PreparedCache cache{32};
    /// EWMA of per-request service seconds; feeds the BUSY retry hint.
    /// 0 until the first request completes (the hint clamps up to 1 ms).
    std::atomic<double> service_ewma_s{0.0};
    /// Admission-to-dequeue wait (ms). Per shard — only this shard's
    /// worker observes it, so observation never contends across shards;
    /// snapshots are merged at summary/flush time.
    ConcurrentHistogram queue_wait_ms{default_queue_wait_bounds_ms()};
  };

  void acceptor_loop();
  void reader_loop(std::shared_ptr<ClientSession> session);
  void worker_loop(Shard& shard);
  void handle_line(const std::shared_ptr<ClientSession>& session,
                   std::string_view line);
  void admit(const std::shared_ptr<ClientSession>& session, Request req);
  void process_batch(Shard& shard, std::vector<QueuedRequest>& batch);
  void handle_inverse(const QueuedRequest& qr);
  void handle_calib(const QueuedRequest& qr);
  void respond(const QueuedRequest& qr, const std::string& line,
               bool count_served);
  [[nodiscard]] std::uint64_t retry_hint_ms(const Shard& shard) const;
  void maybe_flush(std::uint64_t newly_served);
  void flush_metrics();
  void sweep_sessions();
  /// True while either the external degrade flag or the local shed-rate
  /// watermark says to serve the approximate path.
  [[nodiscard]] bool effective_degraded() const noexcept;
  /// Feeds the local shed-rate window (one call per admission decision).
  void note_admission(bool was_shed) noexcept;

  ServeConfig config_;
  ServeTotals totals_;
  ConcurrentHistogram latency_{default_latency_bounds()};

  int listen_fd_ = -1;
  bool owns_socket_file_ = true;  ///< false when adopting config.listen_fd
  std::atomic<bool> degraded_local_{false};
  std::atomic<std::uint64_t> window_admitted_{0};
  std::atomic<std::uint64_t> window_shed_{0};
  std::atomic<bool> stop_{false};      ///< no new connections/reads
  std::atomic<bool> draining_{false};  ///< workers: exit once empty
  bool started_ = false;
  bool joined_ = false;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> rr_next_{0};
  std::thread acceptor_;

  mutable std::mutex sessions_mu_;
  std::vector<std::shared_ptr<ClientSession>> sessions_;
  std::atomic<int> readers_active_{0};
  std::mutex readers_mu_;
  std::condition_variable readers_cv_;

  std::mutex flush_mu_;
  std::atomic<std::uint64_t> flush_credit_{0};
};

/// A collision-safe default socket path under TMPDIR (or /tmp), short
/// enough for sun_path.
[[nodiscard]] std::string default_socket_path();

}  // namespace pftk::serve

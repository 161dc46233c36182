#ifndef ESHARP_OBS_DEBUGZ_H_
#define ESHARP_OBS_DEBUGZ_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/slo.h"
#include "obs/trace.h"

namespace esharp::obs {

class TimeSeriesStore;   // obs/timeseries.h
class FlightRecorder;    // obs/flightrecorder.h

/// \brief One parsed HTTP request, as handed to a Handler. Only the pieces
/// debug endpoints need: method, path, and decoded query parameters.
struct HttpRequest {
  std::string method;  ///< "GET" (the only method the server accepts).
  std::string path;    ///< "/tracez" — no query string.
  std::vector<std::pair<std::string, std::string>> params;

  /// First value of `key`, or `fallback`.
  std::string Param(const std::string& key,
                    const std::string& fallback = "") const;
};

/// \brief One response. Handlers fill body/content_type and optionally the
/// status; the server adds the framing headers.
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

/// \brief One HTTP response as a client read it.
struct HttpResponseData {
  int status = 0;
  std::string content_type;
  std::string body;
  /// The server answered `Connection: keep-alive` and framed the body
  /// with Content-Length, so the connection may carry another request.
  bool keep_alive = false;
};

/// \brief One client-side HTTP/1.1 connection: blocking, IPv4 only,
/// TCP_NODELAY, with a socket read/write timeout. Closed on destruction.
class HttpClientConnection {
 public:
  static Result<std::unique_ptr<HttpClientConnection>> Connect(
      const std::string& host, int port, double timeout_seconds);
  ~HttpClientConnection();

  HttpClientConnection(const HttpClientConnection&) = delete;
  HttpClientConnection& operator=(const HttpClientConnection&) = delete;

  /// Sends one GET and reads its response. `keep_alive` opts in to reuse;
  /// the response's keep_alive says whether the server agreed. When the
  /// exchange fails because the server had already closed the connection
  /// (reset or EOF before the first response byte), `*closed_by_peer` is
  /// set; a timeout or a cut mid-response leaves it false.
  Result<HttpResponseData> Get(const std::string& path, bool keep_alive,
                               bool* closed_by_peer = nullptr);

  /// Socket read/write timeout of the next exchanges.
  void SetTimeout(double seconds);

 private:
  HttpClientConnection(int fd, std::string host, double timeout_seconds)
      : fd_(fd), host_(std::move(host)), timeout_seconds_(timeout_seconds) {}

  int fd_;
  std::string host_;
  double timeout_seconds_;
};

/// \brief Minimal blocking HTTP/1.1 GET client for tests and benches that
/// scrape a DebugServer: one connection per call, closed after the
/// response (no external dependency, IPv4 only).
Result<HttpResponseData> HttpGet(const std::string& host, int port,
                                 const std::string& path,
                                 double timeout_seconds = 5.0);

struct DebugServerOptions {
  /// TCP port; 0 picks an ephemeral one (read it back via port()).
  int port = 0;
  /// Bind address. The default only accepts local connections — a debug
  /// server exposes internals and should not face the open network.
  std::string bind_address = "127.0.0.1";
  /// Worker threads serving requests (the poll loop is its own thread).
  size_t num_workers = 2;
  /// Requests in flight (queued + executing) beyond which a new one is
  /// answered 503 inline and its connection closed — scrapes must never
  /// pile up behind a slow handler and starve the process they are
  /// observing. Idle keep-alive connections do not count.
  size_t max_in_flight = 8;
  /// Socket read/write timeout, and how long a keep-alive connection may
  /// sit idle before the server closes it.
  double io_timeout_seconds = 5.0;
};

/// \brief Dependency-free embedded HTTP/1.1 server: one poll loop plus a
/// bounded common::ThreadPool of workers. Built for statusz-style debug
/// endpoints and the shard evidence RPC: GET only, bounded request size,
/// each response sent in one write with Content-Length and TCP_NODELAY.
///
/// Connections: a request that sends `Connection: keep-alive` gets the
/// same header back and its connection stays open. The poll loop owns
/// idle connections (at most 64, the longest-idle closed first, and each
/// closed after io_timeout_seconds idle); when one turns readable it hands
/// it to a worker, which serves one request and gives the connection back.
/// Every other request — HttpGet, curl, raw sockets — is answered with
/// `Connection: close` and EOF.
///
/// Lifecycle: construct, Handle() your endpoints, Start(), Stop() (also in
/// the destructor). Handlers run on worker threads concurrently with
/// Handle() registrations and must be thread-safe. Serving stats are
/// published as debugz.* instruments in the global MetricsRegistry.
class DebugServer {
 public:
  explicit DebugServer(DebugServerOptions options = {});
  ~DebugServer();

  DebugServer(const DebugServer&) = delete;
  DebugServer& operator=(const DebugServer&) = delete;

  /// Registers `handler` for exact `path` matches (replaces any previous
  /// one). Thread-safe; may be called before or after Start().
  void Handle(const std::string& path, HttpHandler handler);

  /// Binds, listens and spawns the poll loop. IOError when the port is
  /// taken.
  Status Start();

  /// Stops accepting, closes idle connections, drains workers and joins.
  /// Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound port (resolves option port 0 to the ephemeral pick); 0
  /// before Start().
  int port() const { return port_.load(std::memory_order_acquire); }

  /// Registered paths, sorted (the "/" index page).
  std::vector<std::string> paths() const;

  const DebugServerOptions& options() const { return options_; }

 private:
  void PollLoop();
  /// Answers one readable connection on a worker, or sheds it inline.
  void Submit(int fd);
  /// Reads one request and runs its handler. False when there is nothing
  /// to answer (the client hung up or went silent); otherwise `*response`
  /// holds the answer and `*keep_alive` whether the connection stays open.
  bool HandleRequest(int fd, HttpResponse* response, bool* keep_alive);
  /// Gives a kept-alive connection back to the poll loop (or closes it
  /// once the server is stopping).
  void ReturnConnection(int fd);
  HttpResponse Dispatch(const HttpRequest& request);

  DebugServerOptions options_;
  mutable std::mutex handlers_mu_;
  std::map<std::string, HttpHandler> handlers_;

  std::atomic<bool> running_{false};
  std::atomic<int> port_{0};
  int listen_fd_ = -1;
  /// Self-pipe: ReturnConnection and Stop write a byte to wake the poll.
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::unique_ptr<ThreadPool> workers_;
  std::atomic<size_t> requests_in_flight_{0};

  std::mutex returned_mu_;
  std::vector<int> returned_;  // guarded by returned_mu_
  /// Written under returned_mu_, so a worker's check-then-return cannot
  /// interleave with Stop(); the poll loop reads it lock-free.
  std::atomic<bool> stop_{false};

  std::thread poll_thread_;

  // Cached global-registry instruments.
  Counter* requests_ = nullptr;
  Counter* shed_ = nullptr;
  Counter* errors_ = nullptr;
  Histogram* handler_seconds_ = nullptr;
};

// ---------------------------------------------------------------------------
// The statusz endpoint family.

/// \brief One liveness/readiness verdict.
struct ProbeResult {
  bool ok = true;
  std::string detail;
};
using Probe = std::function<ProbeResult()>;

/// \brief Rows of the /tracez "active requests" table.
struct ActiveEntry {
  uint64_t id = 0;
  std::string name;   ///< e.g. the query text.
  std::string stage;  ///< "expand", "detect", ...
  double elapsed_ms = 0;
};

/// \brief Sources behind the standard endpoints. Null members disable the
/// corresponding endpoint (or fall back to the process-wide instance where
/// one exists).
struct StatuszOptions {
  MetricsRegistry* registry = nullptr;        ///< null = Global().
  EventLog* events = nullptr;                 ///< null = EventLog::Global().
  JobProgressRegistry* progress = nullptr;    ///< null = Global().
  Tracer* tracer = nullptr;                   ///< /tracez?format=json source.
  SloWatchdog* watchdog = nullptr;            ///< /statusz SLO table, /readyz.
  std::string build_info;                     ///< /statusz header line.
  /// Named readiness probes: /readyz is 200 only when every probe (and the
  /// watchdog, when set) passes. Liveness (/healthz) is implicit: the
  /// process answered.
  std::vector<std::pair<std::string, Probe>> readiness;
  /// Extra /statusz overview lines (snapshot version, qps/p99, ...).
  std::function<std::string()> overview;
  /// /tracez in-flight table; null leaves it empty. Finished requests
  /// live in the /queryz slow-query log (obs/profile.h), not here.
  std::function<std::vector<ActiveEntry>()> active_requests;
  /// /graphz source: sampled metric history rendered as sparklines (HTML)
  /// or range queries (?format=json&metric=…&window=…). Null disables the
  /// endpoint. Must outlive the server.
  TimeSeriesStore* timeseries = nullptr;
  /// /incidentz source: bundle listing plus ?trigger=<reason> manual
  /// dumps. Null disables the endpoint. Must outlive the server.
  FlightRecorder* recorder = nullptr;
};

/// \brief Mounts the standard endpoint family on `server`:
///   /metrics    Prometheus text exposition of the registry
///   /varz       JSON snapshot of the registry
///   /healthz    liveness (always 200 while the server answers)
///   /readyz     readiness (503 + failing probe names until all pass)
///   /statusz    overview: build info, uptime, probes, SLO burn, links
///   /tracez     in-flight requests (HTML; ?format=json streams the
///               tracer's Chrome JSON)
///   /eventz     the bounded structured event log (HTML; ?format=json;
///               ?level= severity floor, ?after= sequence cursor,
///               ?limit= newest-N cap)
///   /progressz  job progress (HTML; ?format=json)
///   /graphz     sparklines over the time-series store (when wired;
///               ?metric= substring filter, ?window= seconds,
///               ?format=json range queries)
///   /incidentz  flight-recorder bundle listing (when wired;
///               ?trigger=<reason> dumps a bundle now; ?format=json)
/// plus an index page at /.
void MountStatusz(DebugServer* server, StatuszOptions options);

}  // namespace esharp::obs

#endif  // ESHARP_OBS_DEBUGZ_H_

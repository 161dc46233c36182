#include "obs/debugz.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "common/strings.h"
#include "obs/flightrecorder.h"
#include "obs/log.h"
#include "obs/timeseries.h"

namespace esharp::obs {

namespace {

/// Bounded request size: a debug GET line plus a handful of headers. A
/// client that sends more is broken or hostile; drop it.
constexpr size_t kMaxRequestBytes = 8192;

/// Largest Content-Length a client accepts; anything above is a corrupt
/// or hostile header, not a debug page.
constexpr size_t kMaxResponseBodyBytes = size_t{1} << 32;

/// Poll tick: bounds how late an idle connection's timeout is noticed.
constexpr int kPollTickMs = 50;

/// Idle keep-alive connections a server holds at most; past it the
/// longest-idle one is closed.
constexpr size_t kMaxIdleConnections = 64;

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "OK";
  }
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

std::string UrlDecode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      out.push_back(' ');
    } else if (s[i] == '%' && i + 2 < s.size() && HexValue(s[i + 1]) >= 0 &&
               HexValue(s[i + 2]) >= 0) {
      out.push_back(static_cast<char>(HexValue(s[i + 1]) * 16 +
                                      HexValue(s[i + 2])));
      i += 2;
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

void SetIoTimeout(int fd, double seconds) {
  timeval tv;
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - tv.tv_sec) * 1e6);
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/// Small request/response exchanges must not wait out Nagle's algorithm.
void SetNoDelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Writes the whole buffer, tolerating short writes; false on error.
bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
#ifdef MSG_NOSIGNAL
                       MSG_NOSIGNAL
#else
                       0
#endif
    );
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// Sends head and body in one write, so the peer never waits out a
/// delayed ACK between them.
bool SendResponse(int fd, const HttpResponse& response, bool keep_alive) {
  std::string out = StrFormat(
      "HTTP/1.1 %d %s\r\n"
      "Content-Type: %s\r\n"
      "Content-Length: %zu\r\n"
      "Connection: %s\r\n\r\n",
      response.status, ReasonPhrase(response.status),
      response.content_type.c_str(), response.body.size(),
      keep_alive ? "keep-alive" : "close");
  out += response.body;
  return SendAll(fd, out);
}

/// One past the blank line that ends the header block of `raw` (CRLF or
/// bare LF), or npos while it has not arrived.
size_t HeaderEnd(std::string_view raw) {
  size_t end = std::string::npos;
  size_t crlf = raw.find("\r\n\r\n");
  if (crlf != std::string::npos) end = crlf + 4;
  size_t lf = raw.find("\n\n");
  if (lf != std::string::npos) end = std::min(end, lf + 2);
  return end;
}

/// Value of field `name` (lower-case) in a header block whose first line
/// is the start line; surrounding blanks trimmed, empty when absent.
std::string HeaderValue(std::string_view headers, std::string_view name) {
  size_t eol = headers.find('\n');
  while (eol != std::string::npos) {
    const size_t start = eol + 1;
    eol = headers.find('\n', start);
    std::string_view field = headers.substr(
        start, eol == std::string::npos ? std::string::npos : eol - start);
    size_t colon = field.find(':');
    if (colon == name.size() && ToLowerAscii(field.substr(0, colon)) == name) {
      return std::string(StripAscii(field.substr(colon + 1)));
    }
  }
  return "";
}

/// True when the header block asks for `Connection: keep-alive`.
bool WantsKeepAlive(std::string_view headers) {
  return ToLowerAscii(HeaderValue(headers, "connection"))
             .find("keep-alive") != std::string::npos;
}

/// Parses the request line "GET /path?a=1&b=2 HTTP/1.1". Returns false on
/// anything malformed.
bool ParseRequestLine(const std::string& raw, HttpRequest* request) {
  size_t line_end = raw.find("\r\n");
  if (line_end == std::string::npos) line_end = raw.find('\n');
  std::string line = raw.substr(0, line_end);
  size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos) return false;
  size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) return false;
  request->method = line.substr(0, sp1);
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (target.empty() || target[0] != '/') return false;
  size_t q = target.find('?');
  request->path = UrlDecode(target.substr(0, q));
  if (q != std::string::npos) {
    std::string_view query(target);
    query.remove_prefix(q + 1);
    while (!query.empty()) {
      size_t amp = query.find('&');
      std::string_view pair = query.substr(0, amp);
      size_t eq = pair.find('=');
      if (eq == std::string_view::npos) {
        request->params.emplace_back(UrlDecode(pair), "");
      } else {
        request->params.emplace_back(UrlDecode(pair.substr(0, eq)),
                                     UrlDecode(pair.substr(eq + 1)));
      }
      if (amp == std::string_view::npos) break;
      query.remove_prefix(amp + 1);
    }
  }
  return true;
}

/// Reads one response: the header block, then Content-Length body bytes,
/// or everything up to EOF when the server sent no length. The one parser
/// behind HttpGet and pooled keep-alive clients.
Result<HttpResponseData> ReadResponse(int fd, bool* closed_by_peer) {
  std::string raw;
  char buf[16384];
  size_t header_end = std::string::npos;
  size_t content_length = 0;
  bool framed = false;  // Content-Length seen
  HttpResponseData response;
  for (;;) {
    if (header_end == std::string::npos) {
      header_end = HeaderEnd(raw);
      if (header_end != std::string::npos) {
        std::string_view headers(raw.data(), header_end);
        // Status line: "HTTP/1.1 200 OK".
        size_t sp = headers.find(' ');
        if (sp != std::string::npos) {
          response.status = std::atoi(raw.c_str() + sp + 1);
        }
        response.content_type = HeaderValue(headers, "content-type");
        std::string length = HeaderValue(headers, "content-length");
        if (!length.empty()) {
          char* end = nullptr;
          unsigned long long parsed = std::strtoull(length.c_str(), &end, 10);
          if (*end != '\0' || length[0] == '-' ||
              parsed > kMaxResponseBodyBytes) {
            return Status::IOError("malformed response (Content-Length '",
                                   length, "')");
          }
          content_length = static_cast<size_t>(parsed);
          framed = true;
        }
        response.keep_alive = WantsKeepAlive(headers);
      }
    }
    if (framed && raw.size() >= header_end + content_length) break;
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      if (raw.empty() && closed_by_peer != nullptr) {
        *closed_by_peer = n == 0 || errno == ECONNRESET;
      }
      if (n < 0) return Status::IOError("recv failed: ", std::strerror(errno));
      break;  // EOF
    }
    raw.append(buf, static_cast<size_t>(n));
  }
  if (header_end == std::string::npos) {
    return Status::IOError("malformed response (no header terminator)");
  }
  if (!framed) {
    response.body = raw.substr(header_end);
    response.keep_alive = false;
    return response;
  }
  if (raw.size() < header_end + content_length) {
    return Status::IOError("response cut after ", raw.size() - header_end,
                           " of ", content_length, " body bytes");
  }
  response.body = raw.substr(header_end, content_length);
  // Bytes past the body belong to no request of ours; never reuse a
  // connection that carried them.
  response.keep_alive =
      response.keep_alive && raw.size() == header_end + content_length;
  return response;
}

void Wake(int fd) {
  const char byte = 0;
  ssize_t written = ::write(fd, &byte, 1);
  (void)written;  // a full pipe already holds a pending wake-up
}

}  // namespace

std::string HttpRequest::Param(const std::string& key,
                               const std::string& fallback) const {
  for (const auto& [k, v] : params) {
    if (k == key) return v;
  }
  return fallback;
}

// ------------------------------------------------------------- DebugServer --

DebugServer::DebugServer(DebugServerOptions options)
    : options_(std::move(options)) {
  if (options_.num_workers == 0) options_.num_workers = 1;
  if (options_.max_in_flight == 0) options_.max_in_flight = 1;
  MetricsRegistry& registry = MetricsRegistry::Global();
  requests_ = registry.GetCounter("debugz.requests");
  shed_ = registry.GetCounter("debugz.shed");
  errors_ = registry.GetCounter("debugz.errors");
  handler_seconds_ = registry.GetHistogram("debugz.handler_seconds");
}

DebugServer::~DebugServer() { Stop(); }

void DebugServer::Handle(const std::string& path, HttpHandler handler) {
  std::lock_guard<std::mutex> lock(handlers_mu_);
  handlers_[path] = std::move(handler);
}

std::vector<std::string> DebugServer::paths() const {
  std::lock_guard<std::mutex> lock(handlers_mu_);
  std::vector<std::string> out;
  out.reserve(handlers_.size());
  for (const auto& [path, handler] : handlers_) out.push_back(path);
  return out;
}

Status DebugServer::Start() {
  if (running_.load(std::memory_order_acquire)) return Status::OK();
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError("debugz: socket() failed: ", std::strerror(errno));
  }
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    return Status::InvalidArgument("debugz: bad bind address: ",
                                   options_.bind_address);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IOError("debugz: cannot bind ", options_.bind_address, ":",
                           options_.port, ": ", std::strerror(errno));
  }
  if (::listen(fd, 16) != 0) {
    ::close(fd);
    return Status::IOError("debugz: listen() failed: ", std::strerror(errno));
  }
  int wake[2];
  if (::pipe(wake) != 0) {
    ::close(fd);
    return Status::IOError("debugz: pipe() failed: ", std::strerror(errno));
  }
  for (int end : wake) ::fcntl(end, F_SETFL, O_NONBLOCK);
  // Resolve port 0 to the kernel's ephemeral pick.
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_.store(ntohs(bound.sin_port), std::memory_order_release);
  }
  listen_fd_ = fd;
  wake_read_fd_ = wake[0];
  wake_write_fd_ = wake[1];
  {
    std::lock_guard<std::mutex> lock(returned_mu_);
    stop_.store(false, std::memory_order_release);
  }
  workers_ = std::make_unique<ThreadPool>(options_.num_workers);
  running_.store(true, std::memory_order_release);
  poll_thread_ = std::thread([this] { PollLoop(); });
  ESHARP_LOG(INFO) << "debugz serving on http://" << options_.bind_address
                   << ":" << port();
  return Status::OK();
}

void DebugServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  {
    std::lock_guard<std::mutex> lock(returned_mu_);
    stop_.store(true, std::memory_order_release);
  }
  Wake(wake_write_fd_);
  // The poll loop closes the idle connections it holds on its way out.
  if (poll_thread_.joinable()) poll_thread_.join();
  // Destroying the pool runs the queued requests and joins the workers, so
  // no handler can run past this point; with stop_ set, their connections
  // close instead of returning.
  workers_.reset();
  {
    std::lock_guard<std::mutex> lock(returned_mu_);
    for (int fd : returned_) ::close(fd);
    returned_.clear();
  }
  for (int* fd : {&listen_fd_, &wake_read_fd_, &wake_write_fd_}) {
    ::close(*fd);
    *fd = -1;
  }
  port_.store(0, std::memory_order_release);
}

void DebugServer::PollLoop() {
  struct Idle {
    int fd;
    double since;
  };
  std::vector<Idle> idle;  // longest-idle first
  std::vector<pollfd> fds;
  auto hold = [&idle](int fd, double now) {
    if (idle.size() >= kMaxIdleConnections) {
      ::close(idle.front().fd);
      idle.erase(idle.begin());
    }
    idle.push_back({fd, now});
  };
  while (!stop_.load(std::memory_order_acquire)) {
    fds.clear();
    fds.push_back({listen_fd_, POLLIN, 0});
    fds.push_back({wake_read_fd_, POLLIN, 0});
    for (const Idle& c : idle) fds.push_back({c.fd, POLLIN, 0});
    if (::poll(fds.data(), fds.size(), kPollTickMs) < 0) continue;
    const double now = NowSeconds();
    // A readable connection carries a request (or its client hung up):
    // hand it to a worker. A quiet one is closed once idle too long.
    size_t kept = 0;
    for (size_t i = 0; i < idle.size(); ++i) {
      if (fds[i + 2].revents != 0) {
        Submit(idle[i].fd);
      } else if (now - idle[i].since >= options_.io_timeout_seconds) {
        ::close(idle[i].fd);
      } else {
        idle[kept++] = idle[i];
      }
    }
    idle.resize(kept);
    if (fds[1].revents != 0) {
      char drain[64];
      while (::read(wake_read_fd_, drain, sizeof(drain)) > 0) {
      }
      std::vector<int> returned;
      {
        std::lock_guard<std::mutex> lock(returned_mu_);
        returned.swap(returned_);
      }
      for (int fd : returned) hold(fd, now);
    }
    if (fds[0].revents != 0) {
      int client = ::accept(listen_fd_, nullptr, nullptr);
      if (client >= 0) {
        SetIoTimeout(client, options_.io_timeout_seconds);
        SetNoDelay(client);
        hold(client, now);
      }
    }
  }
  for (const Idle& c : idle) ::close(c.fd);
}

void DebugServer::Submit(int fd) {
  size_t in_flight =
      requests_in_flight_.fetch_add(1, std::memory_order_acq_rel);
  if (in_flight < options_.max_in_flight) {
    workers_->Submit([this, fd] {
      HttpResponse response;
      bool keep_alive = false;
      const bool answer = HandleRequest(fd, &response, &keep_alive);
      // Released before the answer goes out: a client that sends its next
      // request the moment it reads this one must find the slot free.
      requests_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
      if (answer && SendResponse(fd, response, keep_alive) && keep_alive) {
        ReturnConnection(fd);
      } else {
        ::close(fd);
      }
    });
    return;
  }
  requests_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  // Shed inline: the bounded pool must not queue requests without limit
  // behind a slow handler. Reading what already arrived first lets the
  // close end in FIN rather than a reset that could destroy the 503; a
  // client that merely hung up gets nothing.
  char discard[kMaxRequestBytes];
  if (::recv(fd, discard, sizeof(discard), MSG_DONTWAIT) != 0) {
    shed_->Increment();
    HttpResponse overloaded;
    overloaded.status = 503;
    overloaded.body = "overloaded\n";
    SendResponse(fd, overloaded, /*keep_alive=*/false);
  }
  ::close(fd);
}

void DebugServer::ReturnConnection(int fd) {
  {
    std::lock_guard<std::mutex> lock(returned_mu_);
    if (!stop_.load(std::memory_order_relaxed)) {
      returned_.push_back(fd);
      fd = -1;
    }
  }
  if (fd >= 0) {
    ::close(fd);
    return;
  }
  Wake(wake_write_fd_);
}

bool DebugServer::HandleRequest(int fd, HttpResponse* response,
                                bool* keep_alive) {
  std::string raw;
  char buf[2048];
  size_t header_end = std::string::npos;
  while (header_end == std::string::npos && raw.size() < kMaxRequestBytes) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    raw.append(buf, static_cast<size_t>(n));
    header_end = HeaderEnd(raw);
  }
  if (raw.empty()) return false;

  HttpRequest request;
  if (!ParseRequestLine(raw, &request)) {
    errors_->Increment();
    response->status = 400;
    response->body = "malformed request\n";
    return true;
  }
  if (request.method != "GET") {
    errors_->Increment();
    response->status = 405;
    response->body = "only GET is supported\n";
    return true;
  }
  // Keep-alive is opt-in, and only for a complete request with nothing
  // pipelined behind it.
  *keep_alive = header_end == raw.size() &&
                WantsKeepAlive(std::string_view(raw).substr(0, header_end));
  requests_->Increment();
  double started = NowSeconds();
  *response = Dispatch(request);
  handler_seconds_->Observe(NowSeconds() - started);
  if (response->status >= 500) errors_->Increment();
  return true;
}

HttpResponse DebugServer::Dispatch(const HttpRequest& request) {
  HttpHandler handler;
  {
    std::lock_guard<std::mutex> lock(handlers_mu_);
    auto it = handlers_.find(request.path);
    if (it != handlers_.end()) handler = it->second;
  }
  if (handler) return handler(request);
  if (request.path == "/") {
    HttpResponse index;
    index.content_type = "text/html; charset=utf-8";
    index.body = "<html><head><title>esharp debugz</title></head><body>"
                 "<h1>esharp debugz</h1><ul>";
    for (const std::string& path : paths()) {
      std::string escaped = HtmlEscape(path);
      index.body +=
          "<li><a href=\"" + escaped + "\">" + escaped + "</a></li>";
    }
    index.body += "</ul></body></html>\n";
    return index;
  }
  HttpResponse not_found;
  not_found.status = 404;
  not_found.body = "no handler for " + request.path + "\n";
  return not_found;
}

// ---------------------------------------------------------- HTTP clients --

Result<std::unique_ptr<HttpClientConnection>> HttpClientConnection::Connect(
    const std::string& host, int port, double timeout_seconds) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError("socket() failed: ", std::strerror(errno));
  }
  SetIoTimeout(fd, timeout_seconds);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host (IPv4 literal expected): ", host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IOError("cannot connect to ", host, ":", port, ": ",
                           std::strerror(errno));
  }
  SetNoDelay(fd);
  return std::unique_ptr<HttpClientConnection>(
      new HttpClientConnection(fd, host, timeout_seconds));
}

HttpClientConnection::~HttpClientConnection() { ::close(fd_); }

void HttpClientConnection::SetTimeout(double seconds) {
  if (seconds == timeout_seconds_) return;
  SetIoTimeout(fd_, seconds);
  timeout_seconds_ = seconds;
}

Result<HttpResponseData> HttpClientConnection::Get(const std::string& path,
                                                   bool keep_alive,
                                                   bool* closed_by_peer) {
  if (closed_by_peer != nullptr) *closed_by_peer = false;
  std::string request = "GET " + path + " HTTP/1.1\r\nHost: " + host_ +
                        (keep_alive ? "\r\nConnection: keep-alive\r\n\r\n"
                                    : "\r\nConnection: close\r\n\r\n");
  if (!SendAll(fd_, request)) {
    if (closed_by_peer != nullptr) {
      *closed_by_peer = errno == EPIPE || errno == ECONNRESET;
    }
    return Status::IOError("send failed: ", std::strerror(errno));
  }
  return ReadResponse(fd_, closed_by_peer);
}

Result<HttpResponseData> HttpGet(const std::string& host, int port,
                                 const std::string& path,
                                 double timeout_seconds) {
  ESHARP_ASSIGN_OR_RETURN(
      std::unique_ptr<HttpClientConnection> connection,
      HttpClientConnection::Connect(host, port, timeout_seconds));
  return connection->Get(path, /*keep_alive=*/false);
}

// ------------------------------------------------------------ MountStatusz --

namespace {

struct StatuszState {
  StatuszOptions options;
  double mounted_seconds = 0;

  MetricsRegistry& registry() const {
    return options.registry != nullptr ? *options.registry
                                       : MetricsRegistry::Global();
  }
  EventLog& events() const {
    return options.events != nullptr ? *options.events : EventLog::Global();
  }
  JobProgressRegistry& progress() const {
    return options.progress != nullptr ? *options.progress
                                       : JobProgressRegistry::Global();
  }

  /// Runs every readiness probe (watchdog included); collects failures.
  ProbeResult Readiness() const {
    ProbeResult verdict;
    for (const auto& [name, probe] : options.readiness) {
      ProbeResult r = probe();
      if (!r.ok) {
        verdict.ok = false;
        if (!verdict.detail.empty()) verdict.detail += "; ";
        verdict.detail += name + (r.detail.empty() ? "" : ": " + r.detail);
      }
    }
    if (options.watchdog != nullptr && !options.watchdog->healthy()) {
      verdict.ok = false;
      if (!verdict.detail.empty()) verdict.detail += "; ";
      verdict.detail += "slo: objective breached";
    }
    return verdict;
  }
};

std::string HtmlPage(const std::string& title, const std::string& body) {
  return "<html><head><title>" + HtmlEscape(title) +
         "</title><style>body{font-family:monospace}table{border-collapse:"
         "collapse}td,th{border:1px solid #999;padding:2px 8px;text-align:"
         "left}</style></head><body><h1>" +
         HtmlEscape(title) + "</h1>" + body + "</body></html>\n";
}

/// Inline SVG sparkline of one series: a polyline normalized into a small
/// fixed box (min..max vertical scale; flat series render as a midline).
std::string SparklineSvg(const std::vector<TimeSeriesPoint>& points) {
  constexpr double kWidth = 240, kHeight = 32, kPad = 2;
  if (points.empty()) return "<svg width=\"240\" height=\"32\"></svg>";
  double t0 = points.front().time_seconds;
  double t1 = points.back().time_seconds;
  double lo = points[0].value, hi = points[0].value;
  for (const TimeSeriesPoint& p : points) {
    lo = std::min(lo, p.value);
    hi = std::max(hi, p.value);
  }
  double t_span = t1 > t0 ? t1 - t0 : 1;
  double v_span = hi > lo ? hi - lo : 1;
  std::string poly;
  for (const TimeSeriesPoint& p : points) {
    double x = kPad + (p.time_seconds - t0) / t_span * (kWidth - 2 * kPad);
    double y = hi > lo
                   ? kPad + (hi - p.value) / v_span * (kHeight - 2 * kPad)
                   : kHeight / 2;
    poly += StrFormat("%.1f,%.1f ", x, y);
  }
  return StrFormat(
      "<svg width=\"%.0f\" height=\"%.0f\"><polyline points=\"%s\" "
      "fill=\"none\" stroke=\"#36c\" stroke-width=\"1\"/></svg>",
      kWidth, kHeight, poly.c_str());
}

HttpResponse GraphzResponse(const std::shared_ptr<StatuszState>& state,
                            const HttpRequest& request) {
  HttpResponse response;
  const TimeSeriesStore* store = state->options.timeseries;
  if (store == nullptr) {
    response.status = 404;
    response.body = "no time-series store mounted\n";
    return response;
  }
  std::string metric = request.Param("metric");
  double window = std::atof(request.Param("window", "0").c_str());
  if (request.Param("format") == "json") {
    response.content_type = "application/json";
    response.body = store->RenderJson(metric, window);
    return response;
  }
  // HTML: one section per metric family (the series id up to its label
  // block), one sparkline row per series.
  std::vector<std::string> names = store->SeriesNames();
  std::string body = StrFormat(
      "<p>%zu series, %llu samples taken, %zu points/series capacity"
      "%s</p>",
      names.size(),
      static_cast<unsigned long long>(store->samples_taken()),
      store->capacity(),
      metric.empty() ? "" : (" &mdash; filter: " + HtmlEscape(metric)).c_str());
  std::string family;
  bool table_open = false;
  size_t rendered = 0;
  constexpr size_t kMaxRows = 400;  // a debug page, not a dashboard export
  for (const std::string& name : names) {
    if (!metric.empty() && name.find(metric) == std::string::npos) continue;
    if (++rendered > kMaxRows) {
      if (table_open) body += "</table>";
      table_open = false;
      body += StrFormat("<p>... truncated at %zu rows; narrow with "
                        "?metric=</p>", kMaxRows);
      break;
    }
    std::string this_family = name.substr(0, name.find('{'));
    if (this_family != family) {
      if (table_open) body += "</table>";
      family = this_family;
      body += "<h3>" + HtmlEscape(family) + "</h3>";
      body += "<table><tr><th>series</th><th>trend</th><th>points</th>"
              "<th>min</th><th>avg</th><th>max</th><th>last</th></tr>";
      table_open = true;
    }
    std::vector<TimeSeriesPoint> points = store->Range(name, window);
    SeriesWindowStats stats = store->Window(name, window);
    body += StrFormat(
        "<tr><td>%s</td><td>%s</td><td>%zu</td><td>%.4g</td><td>%.4g</td>"
        "<td>%.4g</td><td>%.4g</td></tr>",
        HtmlEscape(name).c_str(), SparklineSvg(points).c_str(), stats.count,
        stats.min, stats.avg, stats.max, stats.last);
  }
  if (table_open) body += "</table>";
  body += "<p><a href=\"/graphz?format=json\">json</a> &mdash; "
          "?metric=&lt;substring&gt; filters, ?window=&lt;seconds&gt; "
          "bounds the range</p>";
  response.content_type = "text/html; charset=utf-8";
  response.body = HtmlPage("graphz", body);
  return response;
}

HttpResponse IncidentzResponse(const std::shared_ptr<StatuszState>& state,
                               const HttpRequest& request) {
  HttpResponse response;
  FlightRecorder* recorder = state->options.recorder;
  if (recorder == nullptr) {
    response.status = 404;
    response.body = "no flight recorder mounted\n";
    return response;
  }
  std::string note;
  std::string trigger = request.Param("trigger");
  if (!trigger.empty()) {
    Result<std::string> result =
        recorder->Trigger("manual:" + trigger, "via /incidentz");
    note = result.ok() ? "bundle written: " + *result
                       : "trigger failed: " + result.status().ToString();
  }
  if (request.Param("format") == "json") {
    response.content_type = "application/json";
    response.body = recorder->RenderJson();
    return response;
  }
  std::string body;
  if (!note.empty()) body += "<p><b>" + HtmlEscape(note) + "</b></p>";
  std::vector<IncidentBundleInfo> bundles = recorder->Bundles();
  body += StrFormat(
      "<p>%zu bundles retained (max %zu), %llu written, %llu "
      "debounced</p>",
      bundles.size(), recorder->options().max_bundles,
      static_cast<unsigned long long>(recorder->written()),
      static_cast<unsigned long long>(recorder->suppressed()));
  body += "<table><tr><th>seq</th><th>captured_unix_ms</th><th>reason</th>"
          "<th>bytes</th><th>path</th></tr>";
  for (auto it = bundles.rbegin(); it != bundles.rend(); ++it) {
    body += StrFormat(
        "<tr><td>%llu</td><td>%lld</td><td>%s</td><td>%zu</td>"
        "<td>%s</td></tr>",
        static_cast<unsigned long long>(it->sequence),
        static_cast<long long>(it->captured_unix_ms),
        HtmlEscape(it->reason.empty() ? "(pre-existing)" : it->reason)
            .c_str(),
        it->size_bytes, HtmlEscape(it->path).c_str());
  }
  body += "</table>";
  body += "<p><a href=\"/incidentz?format=json\">json</a> &mdash; "
          "?trigger=&lt;reason&gt; dumps a bundle now</p>";
  response.content_type = "text/html; charset=utf-8";
  response.body = HtmlPage("incidentz", body);
  return response;
}

HttpResponse TracezResponse(const std::shared_ptr<StatuszState>& state,
                            const HttpRequest& request) {
  if (request.Param("format") == "json") {
    HttpResponse json;
    json.content_type = "application/json";
    json.body = state->options.tracer != nullptr
                    ? state->options.tracer->ExportChromeJson()
                    : "{\"traceEvents\":[]}\n";
    return json;
  }
  std::string body = "<h2>active requests</h2>";
  std::vector<ActiveEntry> active =
      state->options.active_requests ? state->options.active_requests()
                                     : std::vector<ActiveEntry>{};
  body += "<table><tr><th>id</th><th>request</th><th>stage</th>"
          "<th>elapsed ms</th></tr>";
  for (const ActiveEntry& e : active) {
    body += StrFormat("<tr><td>%llu</td><td>%s</td><td>%s</td>"
                      "<td>%.3f</td></tr>",
                      static_cast<unsigned long long>(e.id),
                      HtmlEscape(e.name).c_str(), HtmlEscape(e.stage).c_str(),
                      e.elapsed_ms);
  }
  body += "</table>";
  body += StrFormat("<p>%zu in flight</p>", active.size());

  if (state->options.tracer != nullptr) {
    body += StrFormat(
        "<p><a href=\"/tracez?format=json\">raw Chrome JSON</a> "
        "(%zu spans retained, %llu dropped) &mdash; load in "
        "chrome://tracing or ui.perfetto.dev</p>",
        state->options.tracer->size(),
        static_cast<unsigned long long>(state->options.tracer->dropped()));
  }
  HttpResponse response;
  response.content_type = "text/html; charset=utf-8";
  response.body = HtmlPage("tracez", body);
  return response;
}

HttpResponse StatuszResponse(const std::shared_ptr<StatuszState>& state) {
  std::string body;
  if (!state->options.build_info.empty()) {
    body += "<p>" + HtmlEscape(state->options.build_info) + "</p>";
  }
  double now = NowSeconds();
  body += StrFormat("<p>uptime %.1f s (endpoints mounted %.1f s ago)</p>",
                    now, now - state->mounted_seconds);
  ProbeResult ready = state->Readiness();
  body += StrFormat("<p>ready: <b>%s</b>%s</p>", ready.ok ? "yes" : "NO",
                    ready.ok ? ""
                             : (" &mdash; " + HtmlEscape(ready.detail)).c_str());
  if (state->options.overview) {
    body += "<h2>overview</h2><pre>" + HtmlEscape(state->options.overview()) +
            "</pre>";
  }
  if (state->options.watchdog != nullptr) {
    body += "<h2>SLO burn</h2><pre>" +
            HtmlEscape(state->options.watchdog->RenderText()) + "</pre>";
  }
  body += "<h2>endpoints</h2><ul>";
  std::vector<std::string> endpoints = {"/metrics", "/varz",   "/healthz",
                                        "/readyz",  "/tracez", "/eventz",
                                        "/progressz"};
  if (state->options.timeseries != nullptr) endpoints.push_back("/graphz");
  if (state->options.recorder != nullptr) endpoints.push_back("/incidentz");
  for (const std::string& path : endpoints) {
    body += StrFormat("<li><a href=\"%s\">%s</a></li>", path.c_str(),
                      path.c_str());
  }
  body += "</ul>";
  HttpResponse response;
  response.content_type = "text/html; charset=utf-8";
  response.body = HtmlPage("statusz", body);
  return response;
}

}  // namespace

void MountStatusz(DebugServer* server, StatuszOptions options) {
  auto state = std::make_shared<StatuszState>();
  state->options = std::move(options);
  state->mounted_seconds = NowSeconds();

  server->Handle("/metrics", [state](const HttpRequest&) {
    HttpResponse response;
    // The Prometheus text exposition content type.
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = state->registry().ExportPrometheus();
    return response;
  });
  server->Handle("/varz", [state](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = state->registry().ExportJson();
    return response;
  });
  server->Handle("/healthz", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "ok\n";
    return response;
  });
  server->Handle("/readyz", [state](const HttpRequest&) {
    ProbeResult ready = state->Readiness();
    HttpResponse response;
    if (ready.ok) {
      response.body = "ready\n";
    } else {
      response.status = 503;
      response.body = "not ready: " + ready.detail + "\n";
    }
    return response;
  });
  server->Handle("/eventz", [state](const HttpRequest& request) {
    HttpResponse response;
    EventFilter filter;
    std::string level = request.Param("level");
    if (!level.empty() && !ParseLogLevel(level, &filter.min_severity)) {
      response.status = 400;
      response.body = "bad level: " + level +
                      " (want debug|info|warn|error)\n";
      return response;
    }
    filter.after_sequence = static_cast<uint64_t>(
        std::strtoull(request.Param("after", "0").c_str(), nullptr, 10));
    filter.limit = static_cast<size_t>(
        std::strtoull(request.Param("limit", "0").c_str(), nullptr, 10));
    if (request.Param("format") == "json") {
      response.content_type = "application/json";
      response.body = state->events().RenderJson(filter);
    } else {
      response.content_type = "text/html; charset=utf-8";
      response.body = HtmlPage(
          "eventz",
          "<pre>" + HtmlEscape(state->events().RenderText(filter)) +
              "</pre><p><a href=\"/eventz?format=json\">json</a> &mdash; "
              "?level=&lt;floor&gt;, ?after=&lt;seq&gt; cursor, "
              "?limit=&lt;n&gt;</p>");
    }
    return response;
  });
  server->Handle("/progressz", [state](const HttpRequest& request) {
    HttpResponse response;
    if (request.Param("format") == "json") {
      response.content_type = "application/json";
      response.body = state->progress().RenderJson();
    } else {
      response.content_type = "text/html; charset=utf-8";
      response.body = HtmlPage(
          "progressz", "<pre>" + HtmlEscape(state->progress().RenderText()) +
                           "</pre><p><a href=\"/progressz?format=json\">json"
                           "</a></p>");
    }
    return response;
  });
  server->Handle("/tracez", [state](const HttpRequest& request) {
    return TracezResponse(state, request);
  });
  if (state->options.timeseries != nullptr) {
    server->Handle("/graphz", [state](const HttpRequest& request) {
      return GraphzResponse(state, request);
    });
  }
  if (state->options.recorder != nullptr) {
    server->Handle("/incidentz", [state](const HttpRequest& request) {
      return IncidentzResponse(state, request);
    });
  }
  server->Handle("/statusz", [state](const HttpRequest&) {
    return StatuszResponse(state);
  });
}

}  // namespace esharp::obs

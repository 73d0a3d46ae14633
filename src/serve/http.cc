#include "serve/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <utility>

#include "serve/access_log.h"
#include "util/logging.h"
#include "util/obs/obs.h"
#include "util/timer.h"

namespace sthsl::serve {
namespace {

constexpr size_t kMaxHeaderBytes = 64 * 1024;
// Receive timeout: short enough that idle keep-alive connections notice a
// drain promptly, long enough to stay off the CPU.
constexpr int kRecvTimeoutMs = 100;

std::string ToLower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

std::string Trim(const std::string& s) {
  size_t begin = s.find_first_not_of(" \t");
  if (begin == std::string::npos) return "";
  size_t end = s.find_last_not_of(" \t");
  return s.substr(begin, end - begin + 1);
}

/// Sends the whole buffer, riding out short writes. MSG_NOSIGNAL keeps a
/// peer that hung up from killing the process with SIGPIPE.
bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// Guarantees every completed response carries a trace context and echoes
/// a traceparent header. Handlers that attached a context (predict) keep
/// it; every other response — health, metrics, 404/405, parse failures —
/// gets one synthesized here, so the echo and the access-log record are
/// universal.
void FinalizeResponse(const HttpRequest& request, double header_parse_us,
                      HttpResponse* response) {
  if (response->trace.trace_id.empty()) {
    const auto it = request.headers.find("traceparent");
    response->trace = MakeRequestContext(
        it != request.headers.end() ? it->second : std::string());
    response->trace.AddStage(Stage::kHeaderParse, header_parse_us);
  }
  for (const auto& [name, value] : response->headers) {
    if (name == "traceparent") return;
  }
  response->headers.emplace_back("traceparent",
                                 response->trace.TraceparentHeader());
}

/// One access-log record per completed response; the single call site per
/// response path in HandleConnection is what makes "exactly once" hold.
void LogAccess(const std::string& method, const std::string& path,
               const HttpResponse& response, double total_us) {
  AccessLog& log = AccessLog::Global();
  if (!log.enabled()) return;
  AccessLog::Record record;
  record.context = &response.trace;
  record.method = method;
  record.path = path;
  record.status = response.status;
  record.bytes = static_cast<int64_t>(response.body.size());
  record.total_us = total_us;
  record.cache_hit = response.cache_hit;
  record.batch_size = response.batch_size;
  log.Write(record);
}

}  // namespace

const char* HttpStatusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

HttpParse ParseHttpRequest(const std::string& buffer, size_t max_body_bytes,
                           HttpRequest* out, size_t* consumed) {
  const size_t header_end = buffer.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    return buffer.size() > kMaxHeaderBytes ? HttpParse::kBadRequest
                                           : HttpParse::kNeedMore;
  }
  if (header_end > kMaxHeaderBytes) return HttpParse::kBadRequest;

  // Request line.
  const size_t line_end = buffer.find("\r\n");
  const std::string request_line = buffer.substr(0, line_end);
  const size_t sp1 = request_line.find(' ');
  const size_t sp2 =
      sp1 == std::string::npos ? std::string::npos
                               : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos ||
      request_line.find(' ', sp2 + 1) != std::string::npos) {
    return HttpParse::kBadRequest;
  }
  HttpRequest request;
  request.method = request_line.substr(0, sp1);
  request.target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  request.version = request_line.substr(sp2 + 1);
  if (request.method.empty() || request.target.empty() ||
      request.target[0] != '/' ||
      request.version.rfind("HTTP/1.", 0) != 0) {
    return HttpParse::kBadRequest;
  }

  // Header fields.
  size_t cursor = line_end + 2;
  while (cursor < header_end) {
    const size_t eol = buffer.find("\r\n", cursor);
    const std::string line = buffer.substr(cursor, eol - cursor);
    cursor = eol + 2;
    const size_t colon = line.find(':');
    if (colon == std::string::npos || colon == 0) {
      return HttpParse::kBadRequest;  // also rejects folded continuations
    }
    const std::string name = ToLower(Trim(line.substr(0, colon)));
    if (name.find(' ') != std::string::npos || name.find('\t') != std::string::npos) {
      return HttpParse::kBadRequest;
    }
    request.headers[name] = Trim(line.substr(colon + 1));
  }

  if (request.headers.count("transfer-encoding") != 0) {
    return HttpParse::kBadRequest;  // chunked bodies are not supported
  }

  size_t content_length = 0;
  const auto it = request.headers.find("content-length");
  if (it != request.headers.end()) {
    const std::string& text = it->second;
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos ||
        text.size() > 12) {
      return HttpParse::kBadRequest;
    }
    content_length = static_cast<size_t>(std::stoull(text));
  }
  if (content_length > max_body_bytes) return HttpParse::kPayloadTooLarge;

  const size_t body_begin = header_end + 4;
  if (buffer.size() - body_begin < content_length) {
    return HttpParse::kNeedMore;
  }
  request.body = buffer.substr(body_begin, content_length);
  *consumed = body_begin + content_length;
  *out = std::move(request);
  return HttpParse::kOk;
}

std::string RenderHttpResponse(const HttpResponse& response,
                               bool keep_alive) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    HttpStatusReason(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  for (const auto& [name, value] : response.headers) {
    out += name + ": " + value + "\r\n";
  }
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  out += "\r\n";
  out += response.body;
  return out;
}

HttpServer::HttpServer() = default;

HttpServer::~HttpServer() { Drain(); }

void HttpServer::Route(const std::string& method, const std::string& path,
                       Handler handler) {
  routes_[method + " " + path] = std::move(handler);
}

Status HttpServer::Start(const std::string& host, int port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket(): ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const std::string error = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("bind " + host + ":" + std::to_string(port) +
                           ": " + error);
  }
  if (::listen(listen_fd_, 128) != 0) {
    const std::string error = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("listen(): " + error);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    const std::string error = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("getsockname(): " + error);
  }
  port_ = ntohs(bound.sin_port);
  stopping_.store(false);
  // By value: Drain closes listen_fd_ only after joining the thread.
  accept_thread_ = std::thread([this, fd = listen_fd_] { AcceptLoop(fd); });
  return Status::Ok();
}

void HttpServer::AcceptLoop(int listen_fd) {
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listener closed or fatal error
    }
    timeval timeout{};
    timeout.tv_usec = kRecvTimeoutMs * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::lock_guard<std::mutex> lock(conn_mu_);
    conn_threads_.emplace_back([this, fd] { HandleConnection(fd); });
  }
}

void HttpServer::HandleConnection(int fd) {
  std::string buffer;
  char chunk[16 * 1024];
  bool close_connection = false;
  while (!close_connection) {
    // Serve every complete request already buffered before reading more.
    // The timer restarts every iteration, so on the iteration that parses
    // a complete request it measures parse → handler → send without the
    // network wait that preceded it (stage sums stay ≤ total_us).
    size_t consumed = 0;
    HttpRequest request;
    Timer total_timer;
    const double parse_start_us =
        obs::TraceEnabled() ? obs::TraceNowMicros() : 0.0;
    const HttpParse parsed =
        ParseHttpRequest(buffer, max_body_bytes_, &request, &consumed);
    const double parse_us = total_timer.ElapsedMicros();
    if (parsed == HttpParse::kOk) {
      request.header_parse_us = parse_us;
      if (obs::TraceEnabled()) {
        obs::RecordServeSpan("serve/header_parse", parse_start_us, parse_us);
      }
      buffer.erase(0, consumed);
      const bool keep_alive =
          !stopping_.load() &&
          ToLower(request.headers.count("connection") != 0
                      ? request.headers.at("connection")
                      : "keep-alive") != "close";
      HttpResponse response;
      const auto route = routes_.find(request.method + " " + request.target);
      if (route != routes_.end()) {
        response = route->second(request);
      } else {
        // Distinguish a wrong method on a known path from an unknown path.
        bool path_known = false;
        for (const auto& [key, handler] : routes_) {
          const size_t space = key.find(' ');
          if (key.compare(space + 1, std::string::npos, request.target) == 0) {
            path_known = true;
            break;
          }
        }
        response.status = path_known ? 405 : 404;
        response.body = std::string("{\"error\": \"") +
                        (path_known ? "method not allowed" : "not found") +
                        "\"}";
      }
      FinalizeResponse(request, parse_us, &response);
      requests_served_.fetch_add(1);
      const bool sent = SendAll(fd, RenderHttpResponse(response, keep_alive));
      LogAccess(request.method, request.target, response,
                total_timer.ElapsedMicros());
      if (!sent) break;
      close_connection = !keep_alive;
      continue;
    }
    if (parsed == HttpParse::kBadRequest ||
        parsed == HttpParse::kPayloadTooLarge) {
      HttpResponse response;
      response.status = parsed == HttpParse::kBadRequest ? 400 : 413;
      response.body = parsed == HttpParse::kBadRequest
                          ? "{\"error\": \"malformed HTTP request\"}"
                          : "{\"error\": \"request body too large\"}";
      // `request` was never filled: the synthesized context carries fresh
      // ids and the record has no method/path to report.
      FinalizeResponse(request, parse_us, &response);
      requests_served_.fetch_add(1);
      SendAll(fd, RenderHttpResponse(response, /*keep_alive=*/false));
      LogAccess(request.method, request.target, response,
                total_timer.ElapsedMicros());
      break;
    }
    // kNeedMore: pull more bytes; the receive timeout lets us notice drain.
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer.append(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) break;  // peer closed
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      // Idle: a half-received request keeps waiting, an idle connection
      // closes once the server is draining.
      if (stopping_.load() && buffer.empty()) break;
      continue;
    }
    break;  // hard receive error
  }
  ::close(fd);
}

void HttpServer::Drain() {
  if (stopping_.exchange(true)) {
    // A second drain still waits for the first to have joined everything.
  }
  // shutdown() unblocks the accept() so the accept thread can exit. The
  // descriptor is closed only after the join, so the thread never calls
  // accept() on a number the process has since reused.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // After the accept thread has exited no new connection threads appear.
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    threads.swap(conn_threads_);
  }
  for (std::thread& thread : threads) {
    if (thread.joinable()) thread.join();
  }
  if (port_ != 0) {
    STHSL_LOG(Info) << "http server on port " << port_ << " drained ("
                    << requests_served_.load() << " requests served)";
  }
}

}  // namespace sthsl::serve

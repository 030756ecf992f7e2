#include "client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "common/hash.h"

namespace loadbench {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Reap \p pid, waiting at most \p timeout_s; true once it is gone.
bool ReapWithin(pid_t pid, double timeout_s) {
  auto start = Clock::now();
  while (true) {
    pid_t r = ::waitpid(pid, nullptr, WNOHANG);
    if (r == pid || (r < 0 && errno == ECHILD)) return true;
    if (SecondsSince(start) > timeout_s) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

}  // namespace

bool ServerProcess::Start(const std::string& binary,
                          const std::vector<std::string>& args,
                          const std::string& port_file,
                          const std::string& log_path) {
  port_file_ = port_file;
  std::remove(port_file.c_str());
  std::vector<std::string> argv_store = {binary};
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  argv_store.insert(argv_store.end(),
                    {"--port", "0", "--port-file", port_file});
  std::vector<char*> argv;
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);

  pid_ = ::fork();
  if (pid_ < 0) return false;
  if (pid_ == 0) {
    // The server must not outlive the driver, whatever ends the driver.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log >= 0) {
      ::dup2(log, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
      ::close(log);
    }
    ::execv(argv[0], argv.data());
    std::_Exit(127);
  }
  return true;
}

int ServerProcess::WaitForPort(double timeout_s) {
  auto start = Clock::now();
  while (SecondsSince(start) < timeout_s) {
    std::ifstream in(port_file_);
    int port = 0;
    if (in >> port && port > 0) return port;
    if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
      pid_ = -1;
      return 0;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return 0;
}

void ServerProcess::Stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  if (!ReapWithin(pid_, 10.0)) {
    ::kill(pid_, SIGKILL);
    ReapWithin(pid_, 10.0);
  }
  pid_ = -1;
}

double ResidentMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmRSS:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
    std::getline(in, key);
  }
  return 0;
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

bool Connection::Connect(int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
}

bool Connection::RoundTrip(std::string_view line, std::string* reply) {
  std::string out(line);
  out += '\n';
  std::string_view rest = out;
  while (!rest.empty()) {
    ssize_t n = ::send(fd_, rest.data(), rest.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    rest.remove_prefix(static_cast<size_t>(n));
  }
  size_t scanned = 0;
  while (true) {
    size_t nl = buffer_.find('\n', scanned);
    if (nl != std::string::npos) {
      reply->assign(buffer_, 0, nl);
      buffer_.erase(0, nl + 1);
      return true;
    }
    scanned = buffer_.size();
    char chunk[65536];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

void ValuesHasher::Add(std::string_view value) {
  h_ = vpbn::common::Hash64(value, h_ ^ (value.size() * 0x9E3779B97F4A7C15ull));
  ++n_;
}

namespace {

/// Integer value of `"key":N` at top level of \p line, or -1.
int64_t IntField(std::string_view line, std::string_view key) {
  std::string needle(1, '"');
  needle += key;
  needle += "\":";
  size_t at = line.find(needle);
  if (at == std::string_view::npos) return -1;
  size_t i = at + needle.size();
  int64_t v = 0;
  bool any = false;
  while (i < line.size() && line[i] >= '0' && line[i] <= '9') {
    v = v * 10 + (line[i] - '0');
    ++i;
    any = true;
  }
  return any ? v : -1;
}

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Decode the JSON string starting at \p *i (just past the opening quote)
/// into \p out; leaves *i past the closing quote. False on bad input.
bool DecodeString(std::string_view s, size_t* i, std::string* out) {
  out->clear();
  while (*i < s.size()) {
    char c = s[(*i)++];
    if (c == '"') return true;
    if (c != '\\') {
      out->push_back(c);
      continue;
    }
    if (*i >= s.size()) return false;
    char e = s[(*i)++];
    switch (e) {
      case '"': case '\\': case '/': out->push_back(e); break;
      case 'n': out->push_back('\n'); break;
      case 't': out->push_back('\t'); break;
      case 'r': out->push_back('\r'); break;
      case 'b': out->push_back('\b'); break;
      case 'f': out->push_back('\f'); break;
      case 'u': {
        if (*i + 4 > s.size()) return false;
        int cp = 0;
        for (int k = 0; k < 4; ++k) {
          int d = HexDigit(s[*i + k]);
          if (d < 0) return false;
          cp = cp * 16 + d;
        }
        *i += 4;
        // The server escapes only control bytes this way.
        if (cp > 0x7f) return false;
        out->push_back(static_cast<char>(cp));
        break;
      }
      default:
        return false;
    }
  }
  return false;
}

}  // namespace

Reply ParseReply(std::string_view line) {
  Reply r;
  constexpr std::string_view kPrefix = "{\"code\":";
  if (line.substr(0, kPrefix.size()) != kPrefix || line.back() != '}') {
    return r;
  }
  r.code = static_cast<int>(IntField(line, "code"));
  r.count = IntField(line, "count");
  r.epoch = IntField(line, "epoch");
  r.cached = line.find("\"cached\":true") != std::string_view::npos;
  constexpr std::string_view kValues = "\"values\":[";
  size_t at = line.find(kValues);
  if (at != std::string_view::npos) {
    size_t i = at + kValues.size();
    ValuesHasher hasher;
    std::string value;
    bool closed = false;
    while (i < line.size()) {
      char c = line[i++];
      if (c == ']') {
        closed = true;
        break;
      }
      if (c == ',') continue;
      if (c != '"' || !DecodeString(line, &i, &value)) return r;
      hasher.Add(value);
    }
    if (!closed) return r;
    r.num_values = hasher.count();
    r.values_hash = hasher.digest();
  }
  r.parsed = true;
  return r;
}

}  // namespace loadbench

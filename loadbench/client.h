/// \file client.h
/// \brief The wire side of the driver: a vpbnd child process, one blocking
/// TCP connection speaking the line protocol, and the response reader that
/// turns a reply into what the oracle compares.

#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace loadbench {

/// \brief A vpbnd child process on an ephemeral port. The destructor stops
/// it (SIGTERM, then SIGKILL) and reaps it.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Fork + exec \p binary with \p args plus `--port 0 --port-file <f>`;
  /// its stdout/stderr go to \p log_path. Returns false if fork fails.
  bool Start(const std::string& binary, const std::vector<std::string>& args,
             const std::string& port_file, const std::string& log_path);

  /// Poll the port file until vpbnd publishes its port; 0 on timeout or if
  /// the child exited first.
  int WaitForPort(double timeout_s);

  /// Stop and reap the child; safe to call twice.
  void Stop();

  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  std::string port_file_;
};

/// VmRSS of \p pid in MB (0 if unreadable).
double ResidentMb(pid_t pid);

/// \brief One client connection: send a line, read one response line.
class Connection {
 public:
  Connection() = default;
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool Connect(int port);
  /// Send \p line + '\n' and read the reply (newline stripped) into
  /// \p reply. False on a transport error.
  bool RoundTrip(std::string_view line, std::string* reply);

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// \brief What a response says, as far as the oracle is concerned.
struct Reply {
  bool parsed = false;  ///< a well-formed response object
  int code = -1;
  int64_t count = -1;   ///< "count" (QUERY)
  int64_t epoch = -1;   ///< "epoch" (QUERY, RELOAD)
  bool cached = false;  ///< "cached": answered from the result cache
  uint64_t num_values = 0;
  uint64_t values_hash = 0;  ///< ValuesHash of the decoded "values" array
};

/// Decode a vpbnd response line. Only the fields above are read; the
/// "values" strings are JSON-unescaped before hashing.
Reply ParseReply(std::string_view line);

/// \brief Order-sensitive 64-bit digest of a value list; the oracle and the
/// reply reader both reduce a result to (count, digest).
class ValuesHasher {
 public:
  void Add(std::string_view value);
  uint64_t digest() const { return h_; }
  uint64_t count() const { return n_; }

 private:
  uint64_t h_ = 0x6a09e667f3bcc909ull;
  uint64_t n_ = 0;
};

}  // namespace loadbench

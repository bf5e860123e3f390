//===- perfbench/src/HttpClient.h - Closed-loop loopback client -*- C++ -*-===//
///
/// \file
/// A single-threaded HTTP/1.1 client for the through-the-socket
/// workload: one thread multiplexes up to Concurrency non-blocking
/// loopback connections with poll(), one request per connection (the
/// endpoint closes after each response), and starts the next request as
/// soon as one completes (a closed loop with Concurrency callers).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HTTPCLIENT_H
#define PERFBENCH_HTTPCLIENT_H

#include <cstdint>
#include <functional>
#include <string>

namespace perfbench {

struct HttpResult {
  bool TransportError = false; ///< Connect/read/write failed or bad framing.
  int Status = 0;
  std::string Body;
  int64_t StartNs = 0; ///< Before connect().
  int64_t SentNs = 0;  ///< Before the send() that wrote the last bytes.
  int64_t DoneNs = 0;  ///< Response fully read.
};

/// Sends requests 0..N-1 (bytes from \p MakeRequest) to 127.0.0.1:Port,
/// at most \p Concurrency at a time, calling \p OnDone(index, result) on
/// the calling thread as each completes. The calling thread busy-polls its
/// sockets, so it reads a response when it arrives, not when it is next
/// woken.
void runClosedLoop(uint16_t Port, size_t N, unsigned Concurrency,
                   const std::function<std::string(size_t)> &MakeRequest,
                   const std::function<void(size_t, HttpResult &)> &OnDone);

} // namespace perfbench

#endif // PERFBENCH_HTTPCLIENT_H

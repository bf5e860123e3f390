//===- perfbench/src/HttpClient.cpp - Closed-loop loopback client ---------===//

#include "HttpClient.h"

#include "Spans.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#include <vector>

using namespace perfbench;

namespace {

struct Conn {
  int Fd = -1;
  size_t Index = 0;
  std::string Out;
  size_t Written = 0;
  std::string In;
  HttpResult R;
};

/// Parses "HTTP/1.x NNN ..." and splits off the body.
void parseResponse(Conn &C) {
  size_t HeadEnd = C.In.find("\r\n\r\n");
  if (C.In.compare(0, 5, "HTTP/") != 0 || HeadEnd == std::string::npos ||
      C.In.size() < 12) {
    C.R.TransportError = true;
    return;
  }
  C.R.Status = std::atoi(C.In.c_str() + 9);
  C.R.Body = C.In.substr(HeadEnd + 4);
}

bool startConn(Conn &C, uint16_t Port) {
  C.R.StartNs = nowNs();
  C.Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (C.Fd < 0)
    return false;
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  int Rc = ::connect(C.Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr));
  return Rc == 0 || errno == EINPROGRESS;
}

} // namespace

void perfbench::runClosedLoop(
    uint16_t Port, size_t N, unsigned Concurrency,
    const std::function<std::string(size_t)> &MakeRequest,
    const std::function<void(size_t, HttpResult &)> &OnDone) {
  std::vector<Conn> Conns(Concurrency);
  std::vector<pollfd> Fds(Concurrency);
  size_t Next = 0, Done = 0;

  auto Finish = [&](Conn &C, bool Error) {
    if (C.Fd >= 0)
      ::close(C.Fd);
    C.Fd = -1;
    C.R.DoneNs = nowNs();
    if (Error)
      C.R.TransportError = true;
    else
      parseResponse(C);
    OnDone(C.Index, C.R);
    ++Done;
  };
  auto Launch = [&](Conn &C) {
    C = Conn();
    C.Index = Next++;
    C.Out = MakeRequest(C.Index);
    if (!startConn(C, Port))
      Finish(C, /*Error=*/true);
  };

  char Buf[16384];
  while (Done < N) {
    for (Conn &C : Conns)
      while (C.Fd < 0 && Next < N)
        Launch(C);
    for (size_t I = 0; I < Conns.size(); ++I) {
      Fds[I].fd = Conns[I].Fd;
      Fds[I].events =
          Conns[I].Written < Conns[I].Out.size() ? POLLOUT : POLLIN;
      Fds[I].revents = 0;
    }
    if (::poll(Fds.data(), Fds.size(), 0) < 0 && errno != EINTR)
      break;
    for (size_t I = 0; I < Conns.size(); ++I) {
      Conn &C = Conns[I];
      if (C.Fd < 0 || !Fds[I].revents)
        continue;
      bool Error = false, Closed = false;
      if (C.Written < C.Out.size()) {
        // Taken before the call: the endpoint may read the request before
        // send() returns here.
        int64_t SendNs = nowNs();
        ssize_t W = ::send(C.Fd, C.Out.data() + C.Written,
                           C.Out.size() - C.Written, MSG_NOSIGNAL);
        if (W > 0) {
          C.Written += static_cast<size_t>(W);
          if (C.Written == C.Out.size())
            C.R.SentNs = SendNs;
        } else if (errno != EAGAIN && errno != EINTR) {
          Error = true;
        }
      } else {
        while (true) {
          ssize_t R = ::recv(C.Fd, Buf, sizeof(Buf), 0);
          if (R > 0) {
            C.In.append(Buf, static_cast<size_t>(R));
            continue;
          }
          if (R == 0)
            Closed = true;
          else if (errno != EAGAIN && errno != EINTR)
            Error = true;
          break;
        }
      }
      if (Error || Closed)
        Finish(C, Error);
    }
  }
  for (Conn &C : Conns)
    if (C.Fd >= 0)
      ::close(C.Fd);
}

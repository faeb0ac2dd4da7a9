// encodeFrame, FrameReassembler and FdFrameTransport: the one CRC-32
// frame codec that isolated children, the distributed fleet and the
// advisor service all speak.

#include "exec/frame_transport.hpp"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstddef>
#include <string>
#include <thread>

namespace occm::exec {
namespace {

TEST(FrameReassembler, ExtractsOneFrameFedWhole) {
  FrameReassembler r;
  ASSERT_TRUE(r.feed(encodeFrame("hello")));
  const auto payload = r.next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "hello");
  EXPECT_FALSE(r.next().has_value());
  EXPECT_EQ(r.framesExtracted(), 1u);
  EXPECT_EQ(r.buffered(), 0u);
}

TEST(FrameReassembler, ReassemblesAcrossArbitraryChunking) {
  const std::string stream =
      encodeFrame("first") + encodeFrame("") + encodeFrame("third frame");
  // Every chunk size from pathological 1-byte dribble to one-shot.
  for (std::size_t chunk = 1; chunk <= stream.size(); ++chunk) {
    FrameReassembler r;
    for (std::size_t at = 0; at < stream.size(); at += chunk) {
      ASSERT_TRUE(r.feed(stream.substr(at, chunk)));
    }
    EXPECT_EQ(r.next().value_or("<none>"), "first");
    EXPECT_EQ(r.next().value_or("<none>"), "");
    EXPECT_EQ(r.next().value_or("<none>"), "third frame");
    EXPECT_FALSE(r.next().has_value());
    EXPECT_FALSE(r.corrupt());
  }
}

TEST(FrameReassembler, TruncatedFrameStaysPendingNotCorrupt) {
  const std::string frame = encodeFrame("partial");
  FrameReassembler r;
  ASSERT_TRUE(r.feed(std::string_view(frame).substr(0, frame.size() - 1)));
  EXPECT_FALSE(r.next().has_value());
  EXPECT_FALSE(r.corrupt());
  ASSERT_TRUE(r.feed(std::string_view(frame).substr(frame.size() - 1)));
  EXPECT_EQ(r.next().value_or("<none>"), "partial");
}

TEST(FrameReassembler, BadMagicPoisonsPermanently) {
  std::string frame = encodeFrame("x");
  frame[0] ^= 0x40;
  FrameReassembler r;
  EXPECT_FALSE(r.feed(frame));
  EXPECT_TRUE(r.corrupt());
  EXPECT_NE(r.error().message().find("magic"), std::string::npos);
  // Poisoned for good: a clean frame afterwards is never resynchronized.
  EXPECT_FALSE(r.feed(encodeFrame("clean")));
  EXPECT_FALSE(r.next().has_value());
}

TEST(FrameReassembler, PayloadBitFlipFailsCrc) {
  std::string frame = encodeFrame("crc guarded payload");
  frame[kFrameHeaderSize + 3] ^= 0x01;
  FrameReassembler r;
  EXPECT_FALSE(r.feed(frame));
  EXPECT_TRUE(r.corrupt());
  EXPECT_NE(r.error().message().find("crc"), std::string::npos);
}

TEST(FrameReassembler, SecondFrameCorruptionNamesWholeStreamOffset) {
  const std::string good = encodeFrame("good");
  std::string bad = encodeFrame("bad");
  bad[0] ^= 0x40;
  FrameReassembler r;
  EXPECT_FALSE(r.feed(good + bad));
  EXPECT_EQ(r.next().value_or("<none>"), "good");  // extracted before poison
  EXPECT_TRUE(r.corrupt());
  // The error names the bad magic's offset in the stream, not the frame.
  EXPECT_EQ(r.error().byteOffset, good.size());
}

TEST(FrameReassembler, OversizedLengthRejectedAtTheHeader) {
  FrameReassembler r(/*maxPayload=*/64);
  const std::string frame = encodeFrame(std::string(65, 'x'));
  // Deliver only the header: the declared length alone must poison the
  // stream — validation never waits for (or buffers) the payload.
  EXPECT_FALSE(r.feed(std::string_view(frame).substr(0, kFrameHeaderSize)));
  EXPECT_TRUE(r.corrupt());
  EXPECT_NE(r.error().message().find("exceeds"), std::string::npos);
  EXPECT_EQ(r.buffered(), kFrameHeaderSize);
}

TEST(FrameTransport, SocketpairRoundTripsFrames) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  auto a = makeSocketTransport(fds[0]);
  auto b = makeSocketTransport(fds[1]);
  ASSERT_TRUE(a->sendFrame("ping over a socket"));
  ASSERT_TRUE(a->sendFrame("second"));
  std::string payload;
  ASSERT_EQ(b->recvFrame(payload, 2'000), FrameTransport::RecvStatus::kFrame);
  EXPECT_EQ(payload, "ping over a socket");
  ASSERT_EQ(b->recvFrame(payload, 2'000), FrameTransport::RecvStatus::kFrame);
  EXPECT_EQ(payload, "second");
  // And the other direction (duplex).
  ASSERT_TRUE(b->sendFrame("pong"));
  ASSERT_EQ(a->recvFrame(payload, 2'000), FrameTransport::RecvStatus::kFrame);
  EXPECT_EQ(payload, "pong");
}

TEST(FrameTransport, RecvTimesOutWithoutData) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  auto a = makeSocketTransport(fds[0]);
  auto b = makeSocketTransport(fds[1]);
  std::string payload;
  EXPECT_EQ(a->recvFrame(payload, 10), FrameTransport::RecvStatus::kTimeout);
  (void)b;
}

TEST(FrameTransport, PeerCloseReportsClosed) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  auto a = makeSocketTransport(fds[0]);
  ::close(fds[1]);
  std::string payload;
  EXPECT_EQ(a->recvFrame(payload, 2'000), FrameTransport::RecvStatus::kClosed);
}

TEST(FrameTransport, CorruptStreamReportsCorrupt) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  auto a = makeSocketTransport(fds[0]);
  std::string garbage = encodeFrame("x");
  garbage[0] = static_cast<char>(garbage[0] ^ 0x40);
  ASSERT_EQ(::send(fds[1], garbage.data(), garbage.size(), 0),
            static_cast<ssize_t>(garbage.size()));
  std::string payload;
  EXPECT_EQ(a->recvFrame(payload, 2'000),
            FrameTransport::RecvStatus::kCorrupt);
  EXPECT_FALSE(a->lastError().empty());
  ::close(fds[1]);
}

TEST(FrameTransport, PipePairRoundTrips) {
  int toChild[2];
  int toParent[2];
  ASSERT_EQ(::pipe(toChild), 0);
  ASSERT_EQ(::pipe(toParent), 0);
  auto parent = makePipeTransport(toParent[0], toChild[1]);
  auto child = makePipeTransport(toChild[0], toParent[1]);
  ASSERT_TRUE(parent->sendFrame("down the pipe"));
  std::string payload;
  ASSERT_EQ(child->recvFrame(payload, 2'000),
            FrameTransport::RecvStatus::kFrame);
  EXPECT_EQ(payload, "down the pipe");
  ASSERT_TRUE(child->sendFrame("and back"));
  ASSERT_EQ(parent->recvFrame(payload, 2'000),
            FrameTransport::RecvStatus::kFrame);
  EXPECT_EQ(payload, "and back");
}

TEST(FrameTransport, TcpLoopbackConnectAndExchange) {
  int boundPort = 0;
  auto listener = listenTcp("127.0.0.1", 0, &boundPort);
  ASSERT_TRUE(listener.hasValue()) << listener.error();
  ASSERT_GT(boundPort, 0);

  std::thread server([&] {
    const int fd = ::accept(*listener, nullptr, nullptr);
    ASSERT_GE(fd, 0);
    auto transport = makeSocketTransport(fd);
    std::string payload;
    ASSERT_EQ(transport->recvFrame(payload, 5'000),
              FrameTransport::RecvStatus::kFrame);
    EXPECT_EQ(payload, "hello coordinator");
    ASSERT_TRUE(transport->sendFrame("hello worker"));
  });

  auto fd = connectTcp("127.0.0.1", boundPort, 5'000);
  ASSERT_TRUE(fd.hasValue()) << fd.error();
  auto transport = makeSocketTransport(*fd);
  ASSERT_TRUE(transport->sendFrame("hello coordinator"));
  std::string payload;
  ASSERT_EQ(transport->recvFrame(payload, 5'000),
            FrameTransport::RecvStatus::kFrame);
  EXPECT_EQ(payload, "hello worker");
  server.join();
  ::close(*listener);
}

TEST(FrameTransport, ConnectToClosedPortFails) {
  // Bind-then-close to find a port that is very likely unused.
  int boundPort = 0;
  auto listener = listenTcp("127.0.0.1", 0, &boundPort);
  ASSERT_TRUE(listener.hasValue());
  ::close(*listener);
  auto fd = connectTcp("127.0.0.1", boundPort, 500);
  EXPECT_FALSE(fd.hasValue());
}

// --- Signal-delivery and partial-write hardening ------------------------
// sendAllBytes (and therefore sendFrame) must survive the hazards of
// signal-heavy processes: EINTR surfacing mid-write, short writes into a
// tiny socket buffer, and EAGAIN stalls on non-blocking fds. The handler
// below is installed WITHOUT SA_RESTART, so the kernel genuinely
// interrupts blocked writes instead of transparently restarting them.

void noopSignalHandler(int) {}

struct ScopedSigusr1Handler {
  struct sigaction previous {};
  ScopedSigusr1Handler() {
    struct sigaction action {};
    action.sa_handler = noopSignalHandler;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;  // no SA_RESTART: EINTR must surface
    sigaction(SIGUSR1, &action, &previous);
  }
  ~ScopedSigusr1Handler() { sigaction(SIGUSR1, &previous, nullptr); }
};

void shrinkSendBuffer(int fd) {
  const int size = 4 * 1024;  // the kernel clamps to its floor; still tiny
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &size, sizeof size), 0);
}

TEST(FrameTransport, SendFrameSurvivesSignalStormMidTransfer) {
  ScopedSigusr1Handler handler;
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  shrinkSendBuffer(fds[0]);

  // Big enough that the sender blocks on the shrunken buffer many times,
  // giving the storm a wide window to interrupt writes.
  std::string payload(2 * 1024 * 1024, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i * 131 + 17);
  }

  auto sender = makeSocketTransport(fds[0]);
  std::atomic<bool> sendOk{false};
  std::atomic<bool> senderDone{false};
  std::thread sendThread([&] {
    sendOk = sender->sendFrame(payload);
    senderDone = true;
  });
  // Storm the sender with signals for the whole duration of the send.
  std::thread storm([&] {
    while (!senderDone.load()) {
      pthread_kill(sendThread.native_handle(), SIGUSR1);
      std::this_thread::yield();
    }
  });

  auto receiver = makeSocketTransport(fds[1]);
  std::string received;
  ASSERT_EQ(receiver->recvFrame(received, 30'000),
            FrameTransport::RecvStatus::kFrame);
  sendThread.join();
  storm.join();
  EXPECT_TRUE(sendOk.load());
  // Byte-exact through every EINTR and short write (CRC re-checked by the
  // reassembler, compare anyway for a readable failure).
  EXPECT_EQ(received, payload);
}

TEST(FrameTransport, SendAllBytesDrainsNonBlockingFdThroughEagain) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  shrinkSendBuffer(fds[0]);
  const int flags = ::fcntl(fds[0], F_GETFL, 0);
  ASSERT_EQ(::fcntl(fds[0], F_SETFL, flags | O_NONBLOCK), 0);

  std::string payload(1024 * 1024, 'q');
  std::atomic<bool> sendOk{false};
  std::thread sendThread(
      [&] { sendOk = sendAllBytes(fds[0], payload, /*isSocket=*/true); });

  // Drain everything on the other end; the writer must ride out every
  // EAGAIN via its POLLOUT wait and finish the full count.
  std::string received;
  char chunk[16 * 1024];
  while (received.size() < payload.size()) {
    const ssize_t n = ::read(fds[1], chunk, sizeof chunk);
    ASSERT_GT(n, 0);
    received.append(chunk, static_cast<std::size_t>(n));
  }
  sendThread.join();
  EXPECT_TRUE(sendOk.load());
  EXPECT_EQ(received, payload);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(FrameTransport, SendAllBytesGivesUpOnNeverDrainedPeer) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  shrinkSendBuffer(fds[0]);
  const int flags = ::fcntl(fds[0], F_GETFL, 0);
  ASSERT_EQ(::fcntl(fds[0], F_SETFL, flags | O_NONBLOCK), 0);

  // Nobody ever reads fds[1]: the buffer fills, POLLOUT never comes, and
  // the bounded unwritable window turns the stall into a clean failure
  // instead of a hung server loop.
  const std::string payload(4 * 1024 * 1024, 'z');
  EXPECT_FALSE(
      sendAllBytes(fds[0], payload, /*isSocket=*/true,
                   /*unwritableTimeoutMs=*/50));
  ::close(fds[0]);
  ::close(fds[1]);
}

}  // namespace
}  // namespace occm::exec

// Fuzzes the exec wire layer end to end — the path both a fleet worker's
// TCP stream and an isolated child's result pipe take: the stream
// reassembler that turns arbitrary chunks back into frames, and
// decodeMessage on both the extracted payloads and the raw input. The
// reassembler must extract frames or report a typed IpcError — never
// throw, never mis-extract — and any payload decodeMessage accepts must
// be a re-encode fixed point.

#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>

#include "exec/distributed/protocol.hpp"
#include "exec/frame_transport.hpp"

namespace {

void checkDecodedPayload(std::string_view payload) {
  using namespace occm::exec::dist;
  const auto message = decodeMessage(payload);
  if (message.hasValue()) {
    // Accepted payloads are pinned to canonical form: re-encoding the
    // decoded message must reproduce the bytes exactly.
    if (encodeMessage(message.value()) != payload) {
      std::abort();
    }
  } else {
    (void)message.error().message();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using occm::exec::FrameReassembler;
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);

  // The first byte picks a chunking stride so the corpus exercises
  // reassembly across arbitrary TCP segmentation, not just one-shot
  // delivery. stride 0 means "feed everything at once".
  const std::size_t stride = size == 0 ? 0 : data[0] % 7;
  const std::string_view stream = size == 0 ? bytes : bytes.substr(1);

  FrameReassembler reassembler;
  if (stride == 0) {
    (void)reassembler.feed(stream);
  } else {
    for (std::size_t at = 0; at < stream.size(); at += stride) {
      if (!reassembler.feed(stream.substr(at, stride))) {
        break;
      }
    }
  }
  if (reassembler.corrupt()) {
    (void)reassembler.error().message();
  }
  while (const auto payload = reassembler.next()) {
    checkDecodedPayload(*payload);
  }

  // The raw input doubles as a direct message-decoder probe (payloads
  // reach decodeMessage without framing in the tests too).
  checkDecodedPayload(stream);
  return 0;
}

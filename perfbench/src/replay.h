// Layer replay for the traced run.
//
// The facade's Session::compress is one opaque call. To see where its time
// goes, the traced run calls the public functions of every layer beneath
// it on the same field, from here, each wrapped in a span:
//
//   core       FieldCompressor plan / run_block / finalize, with the blocks
//              dispatched on a parallel::WorkQueue; decompress_blocked and
//              per-block decompress_block
//   io         compress_to_file vs compress_blocked (the spill), and
//              decompress_file vs decompress_blocked (the mmap read)
//   codec      the registry's BlockCodec on every gathered tile
//   sz / simd  the tile's predict+quantize pass (sz::prediction_trace on
//              rank 3, the lorenzo2_quant kernel on rank 2) and the SSE
//              kernel
//   huffman    table build, encode, decode of the tile's codes
//   lossless   the backend over the tile's Huffman-coded stream
//
// The replays are checked against the facade's archive byte for byte, so
// the numbers describe the code path the archive really took.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "common.h"
#include "core/compressor.h"
#include "trace.h"

namespace perfbench {

struct FieldJob {
  std::span<const float> values;  ///< what the codec sees (a series frame's composite)
  fpsnr::data::Dims dims;
  fpsnr::core::ControlRequest request;
  fpsnr::core::CompressOptions options;  ///< resolved as the facade resolves them
  std::span<const std::uint8_t> archive;  ///< the facade's archive of this field
  std::string spill_path;  ///< scratch file for the streaming writer
  std::uint64_t op = 0;
  std::string what;  ///< label for failure messages
};

/// Replay one field through every layer; spans and counts go to `tracer`,
/// mismatches against the facade's archive go to `report`.
void replay_field(Tracer& tracer, Report& report, const FieldJob& job);

/// The tracing overhead. `op(i, side, tracer)` makes operation i's facade
/// calls once, in spans on `tracer` (none if null) and with no replays, and
/// returns their time (ms). Every operation runs four times back to back on
/// the same caller, untraced, traced, traced, untraced, and the next one
/// traced, untraced, untraced, traced (sides 0 and 3 untraced, 1 and 2
/// traced, for a caller that keeps state per side), so host noise and the
/// place in the sequence hit both sides alike. Returns traced / untraced
/// - 1 over `ops` operations: the cost of the spans alone.
double tracing_overhead(std::size_t ops,
                        const std::function<double(std::size_t, int, Tracer*)>& op);

/// Finish a traced pass of `ops` field operations: the per-layer metrics
/// from the replay spans and counters (means per operation), the tracing
/// overhead, the self-time table, and the span file `dir`/spans.jsonl.
void finish_trace(Report& report, const Tracer& tracer, double ops,
                  double overhead_frac, const std::string& dir);

}  // namespace perfbench

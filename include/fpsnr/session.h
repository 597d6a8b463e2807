// fpsnr public API — the Session facade.
//
// One stable, installable surface for everything the library does:
//
//   fpsnr::Session session({.threads = 8, .engine = "sz-lorenzo"});
//   auto report = session.compress(
//       fpsnr::Source::memory(values, {512, 512}),
//       fpsnr::FixedPsnr{80.0},
//       fpsnr::Sink::memory());
//   auto field = session.decompress(fpsnr::Source::memory(report.archive));
//
// A Session is a reusable handle that owns its concurrency budget (jobs it
// issues run on at most `threads` executors: the calling thread plus
// helper threads the work queue lends it), the engine selection, and the
// per-engine tuning. compress/decompress/inspect accept any Source/Sink
// combination — in-memory, raw-file, archive file (block-by-block spill
// on compress, memory-mapped decode) — through one signature, and the
// Target sum type covers every control mode including fixed-rate.
//
// The Session facade is the ONLY public entry point — the legacy core::
// free-function shims have been removed. Archive bytes depend only on the
// data, the target, and the session's engine/budget/tile options, never on
// the thread count.
//
// Self-contained: installed under <prefix>/include/fpsnr and includes only
// the C++ standard library and sibling fpsnr/ headers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fpsnr/stream.h"
#include "fpsnr/target.h"
#include "fpsnr/tuning.h"

namespace fpsnr {

/// Per-axis tile extents (C order) of the pipeline's block grid — the
/// geometry every field is sharded into before its tiles run the
/// quantize -> Huffman -> lossless pipeline independently.
///
///   {}           auto: a deterministic compact near-cubic tile clamped to
///                the field's dims (the default, best for 2-D/3-D fields);
///   {64, 64}     64x64 tiles (trailing tiles on an axis may be short);
///   {r}          an axis-0 slab of r rows spanning the other axes — the
///                only geometry the pre-v3 container had;
///   a 0 entry — or a missing trailing axis — spans the field on that axis.
///
/// Entries beyond the field's rank are rejected at compress time.
struct TileShape {
  std::vector<std::size_t> extents;

  TileShape() = default;
  TileShape(std::initializer_list<std::size_t> e) : extents(e) {}
  explicit TileShape(std::vector<std::size_t> e) : extents(std::move(e)) {}

  /// The legacy axis-0 slab geometry: `rows` rows per block (0 = auto).
  static TileShape slab(std::size_t rows) { return TileShape{rows}; }

  bool is_auto() const { return extents.empty(); }
};

/// Session-wide configuration, fixed at construction.
struct SessionOptions {
  /// Worker cap for this session's jobs (the calling thread plus at most
  /// threads-1 of the work queue's helper threads; the queue enforces
  /// it). 0 = hardware concurrency. Output bytes never depend on this
  /// value.
  std::size_t threads = 0;
  /// Codec, by registry name or alias ("sz-lorenzo"/"sz", "transform-haar"/
  /// "haar", "transform-dct"/"dct", "interp", "zfpr", "store", plus any
  /// codec registered at startup). Unknown names throw from the
  /// constructor, listing the live registry.
  std::string engine = "sz-lorenzo";
  /// Per-block error-budget split: "uniform" (the paper's Eq. 6/7 setting)
  /// or "adaptive" (donor/receiver reallocation at the same global PSNR).
  std::string budget = "uniform";
  /// Tile geometry of the pipeline's block grid; default = auto near-cubic
  /// tiles. TileShape::slab(r) reproduces the legacy block_rows = r plan.
  TileShape tile;
  /// Engine-specific knob overrides (see fpsnr/tuning.h).
  CodecTuning tuning;
};

/// Outcome of one compression job.
struct CompressReport {
  /// The archive bytes — filled for Sink::memory() only.
  std::vector<std::uint8_t> archive;
  /// Where the archive landed — Sink::file (and its synonym
  /// Sink::stream) only.
  std::string archive_path;

  std::size_t value_count = 0;
  std::size_t compressed_bytes = 0;
  double compression_ratio = 0.0;
  double bit_rate = 0.0;  ///< compressed bits per value

  /// Analytical PSNR prediction (Eq. 6/7); NaN where the model does not
  /// apply (pointwise-rel).
  double predicted_psnr_db = 0.0;
  /// Measured PSNR of the emitted archive, exact from the per-block SSE
  /// recorded at compress time; +inf for lossless output.
  double achieved_psnr_db = 0.0;
  /// Value-range relative bound the job resolved to (0 in pointwise-rel
  /// mode).
  double rel_bound_used = 0.0;
  std::size_t outlier_count = 0;

  /// Block layout of the emitted FPBK container.
  std::uint64_t block_count = 0;
  std::vector<std::size_t> tile;  ///< per-axis tile extents, C order
  /// Reorder-buffer high-water marks of the file writer: the most block
  /// bytes (and blocks) that waited for a predecessor before landing in
  /// the file. Sink::file only; 0 for Sink::memory().
  std::size_t peak_buffered_bytes = 0;
  std::size_t peak_buffered_blocks = 0;
};

/// A decompressed field. Exactly one of f32/f64 is populated, matching the
/// archive's recorded scalar type.
struct Field {
  std::vector<std::size_t> dims;  ///< C order
  std::vector<float> f32;
  std::vector<double> f64;

  std::size_t size() const { return f32.empty() ? f64.size() : f32.size(); }
  bool is_double() const { return f32.empty() && !f64.empty(); }
};

/// Parsed archive metadata (no payload decode).
struct Inspection {
  bool block_container = false;  ///< FPBK container vs legacy flat stream
  std::uint8_t version = 0;      ///< container version (FPBK only)
  std::string codec;             ///< registry name
  std::string target;            ///< target_name() of the recorded control
                                 ///< (empty for flat FPTC streams)
  double target_value = 0.0;
  std::string budget;            ///< "uniform" | "adaptive"
  std::vector<std::size_t> dims;
  std::uint64_t block_count = 0;
  /// Per-axis tile extents (pre-v3 archives surface their slab geometry as
  /// {block_rows, dims[1], ...}); empty for flat streams.
  std::vector<std::size_t> tile;
  double eb_abs = 0.0;           ///< base absolute bound (0 in pwrel mode)
  double value_range = 0.0;
  /// Measured PSNR from the v2 per-block SSE column; NaN when the archive
  /// does not record it (v1 containers, flat streams).
  double achieved_psnr_db = 0.0;
  std::size_t archive_bytes = 0;
  /// v4 temporal-chain metadata (see fpsnr/timeseries.h); all zero / false
  /// for plain spatial archives (v1..v3) and flat streams.
  bool temporal = false;  ///< archive is a time-series frame (FPBK v4)
  bool delta = false;     ///< frame codes deltas against its predecessor
  std::uint64_t series_id = 0;   ///< FNV-1a of the series name
  std::uint64_t timestep = 0;    ///< 0-based position in the series
  std::uint64_t ref_hash = 0;    ///< identity of the required reference
  std::size_t temporal_blocks = 0;  ///< blocks coded in temporal-delta mode
};

/// One field of a batch job: a name (the archive's file stem in streaming
/// mode) plus a field Source.
struct BatchEntry {
  std::string name;
  Source source;
};

/// A multi-field compression job: every field lands on the same target,
/// with all fields' blocks interleaved on one global work queue.
struct BatchJob {
  std::vector<BatchEntry> fields;
  Target target = FixedPsnr{80.0};
  /// true: decode each archive and measure PSNR/max-error independently.
  /// false: trust the exact compress-time SSE column (identical by
  /// construction; max_abs_error reported as 0).
  bool verify = true;
  /// Non-empty: stream every archive to <stream_dir>/<name>.fpbk as its
  /// blocks finish; empty: archives are kept in memory.
  std::string stream_dir;
  /// Keep in-memory archives in BatchFieldReport::archive.
  bool keep_archives = false;
};

struct BatchFieldReport {
  std::string name;
  double target_psnr_db = 0.0;
  double predicted_psnr_db = 0.0;
  double actual_psnr_db = 0.0;
  double rel_bound_used = 0.0;
  double compression_ratio = 0.0;
  double bit_rate = 0.0;
  double max_abs_error = 0.0;
  std::size_t outlier_count = 0;
  std::size_t value_count = 0;
  std::size_t compressed_bytes = 0;
  bool met_target = false;
  std::vector<std::uint8_t> archive;  ///< BatchJob::keep_archives only
  std::string archive_path;           ///< BatchJob::stream_dir runs only
};

struct BatchReport {
  double target_psnr_db = 0.0;
  std::vector<BatchFieldReport> fields;
  double mean_psnr_db = 0.0;
  double stdev_psnr_db = 0.0;
  double met_fraction = 0.0;
};

/// The facade. Construct once, reuse for any number of jobs; the handle is
/// movable, and all job methods are const (safe to share across threads —
/// each job drains a work queue of its own on shared helper threads).
class Session {
 public:
  Session();
  explicit Session(SessionOptions options);
  ~Session();

  Session(Session&&) noexcept;
  Session& operator=(Session&&) noexcept;

  const SessionOptions& options() const;

  /// The resolved worker cap this session runs jobs at (options().threads,
  /// or hardware concurrency when that was 0).
  std::size_t threads() const;

  /// Compress a field Source to an archive Sink under `target`. Throws
  /// std::invalid_argument for combinations the engine cannot honour
  /// (e.g. pointwise-rel targets on codecs other than sz-lorenzo) and io
  /// errors as std::runtime_error subclasses.
  CompressReport compress(const Source& input, const Target& target,
                          const Sink& output) const;

  /// Decompress a whole archive: any stream the library ever wrote, FPBK
  /// containers (decoded block-parallel) and legacy flat FPSZ / FPTC
  /// streams. The scalar type is the one the archive's header records. A
  /// file source is memory-mapped and decoded exactly like the same bytes
  /// in memory. Malformed archives throw StreamError.
  Field decompress(const Source& archive) const;

  /// Random-access decode of one pipeline block: only the header, two
  /// index entries, and that block's extent are ever read (of a file
  /// source, only those pages are faulted in). Throws
  /// std::invalid_argument for an archive that is not an FPBK container
  /// and std::out_of_range for a block index past the end, from memory
  /// and from file alike.
  Field decompress_block(const Source& archive, std::size_t block_index) const;

  /// Archive metadata without touching the payload, for FPBK containers
  /// and legacy flat streams (a flat FPTC stream records no target and no
  /// measured PSNR: `target` is empty and achieved_psnr_db NaN). A header
  /// naming no registered codec throws StreamError, as decompress() does.
  Inspection inspect(const Source& archive) const;

  /// Compress every field of `job` to the same target, interleaving all
  /// fields' blocks on one global work queue. Per-field archives are
  /// byte-identical to single-field compress() runs at any thread count.
  /// Only FixedPsnr targets are supported today.
  BatchReport compress_batch(const BatchJob& job) const;

  /// Names of every registered codec, in wire-id order.
  static std::vector<std::string> engines();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace fpsnr

// Dataset-level fixed-PSNR compression — the batch engine behind Fig. 2 /
// Table II and the `compress-batch` CLI.
//
// Every field of a dataset is compressed to the same PSNR target through
// the block-parallel pipeline (core/pipeline.h). The engine plans all
// fields up front, then interleaves the blocks of EVERY field onto one
// global work queue (parallel::WorkQueue): a tiny 2-D slice no longer
// serializes the pool behind a huge 3-D volume's stragglers, and each
// field's FPBK archive is finalized by whichever worker completes its last
// block. Each field has one io::BlockContainerWriter, on memory or on a
// file under BatchOptions::stream_dir. Because the per-field plan and
// per-block bytes depend only on the data and options — never on the
// schedule — every field's archive is byte-identical to a single-field
// compress_blocked/compress_to_file run at any thread count, and the
// per-field fixed-PSNR guarantee is exactly the single-field one.
//
// DEPRECATED as public surface: external callers should use
// fpsnr::Session::compress_batch (include/fpsnr/session.h), which wraps
// this engine with byte-identical per-field archives.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/compressor.h"
#include "data/dataset.h"
#include "metrics/stats.h"

namespace fpsnr::core {

/// Outcome of one field at one target PSNR.
struct FieldOutcome {
  std::string field_name;
  double target_psnr_db = 0.0;
  double predicted_psnr_db = 0.0;  ///< analytical (Eq. 7)
  double actual_psnr_db = 0.0;     ///< measured (see BatchOptions::verify)
  double rel_bound_used = 0.0;
  double compression_ratio = 0.0;
  double bit_rate = 0.0;
  double max_abs_error = 0.0;  ///< 0 when BatchOptions::verify is off
  std::size_t outlier_count = 0;
  std::size_t compressed_bytes = 0;
  bool met_target = false;  ///< actual >= target (paper's definition of "meet")
  /// The field's FPBK archive, kept only when BatchOptions::keep_streams is
  /// set and the batch ran in-memory (always empty in streaming mode).
  std::vector<std::uint8_t> stream;
  /// Path of the field's streamed archive (BatchOptions::stream_dir mode);
  /// empty for in-memory runs.
  std::string archive_path;
};

/// Aggregate over all fields of a dataset at one target PSNR.
struct BatchResult {
  std::string dataset_name;
  double target_psnr_db = 0.0;
  std::vector<FieldOutcome> fields;

  /// AVG / STDEV of the actual PSNRs — the two columns of Table II.
  metrics::RunningStats psnr_stats() const;
  /// Fraction of fields whose actual PSNR met (>=) the target.
  double met_fraction() const;
  /// Mean |actual - target| deviation in dB.
  double mean_abs_deviation_db() const;
};

struct BatchOptions {
  /// Per-field codec options; tile / engine / budget pass through to
  /// every field's plan (the queue owns parallel.threads).
  CompressOptions compress = {};
  /// Concurrent executors draining the global queue (the calling thread
  /// plus at most threads-1 of the queue's helper threads, a cap the
  /// queue enforces); <= 1 = fully sequential.
  /// Per-field archives are byte-identical for every value — only
  /// wall-clock changes.
  std::size_t threads = 0;
  /// true (default): decompress each archive and measure the actual PSNR /
  /// max error independently. false: skip the decode pass and report the
  /// exact achieved PSNR the FPBK v2 per-block SSE column records at
  /// compress time (identical to the decoded measurement by construction;
  /// max_abs_error is left 0).
  bool verify = true;
  /// When non-empty: write every field's archive to
  /// `<stream_dir>/<field>.fpbk` through the file output of
  /// io::BlockContainerWriter (blocks spill as their prefix completes, so
  /// peak memory is O(in-flight blocks) per field). The directory is
  /// created if needed.
  std::string stream_dir;
  /// Keep each field's archive bytes in FieldOutcome::stream (in-memory
  /// runs only; streaming archives live at FieldOutcome::archive_path).
  bool keep_streams = false;
  /// Streaming mode holds one open file descriptor per in-flight field
  /// (every writer's `.partial` opens at plan time), so a huge manifest
  /// could exhaust the process fd limit. Fields are therefore fed to the
  /// queue in waves of at most this many; 0 picks the default (256 —
  /// comfortably under a 1024 ulimit, still far more interleaving than
  /// the pool has workers). In-memory runs ignore it.
  std::size_t max_open_streams = 0;
};

/// Case-folded copy of an archive/field name, the single definition of
/// "these two names collide" shared by the batch engine's stream-path
/// guard and the CLI's manifest validation: 'U' and 'u' are one file on
/// default macOS/Windows volumes, so collision checks must fold case
/// everywhere or accept/reject sets diverge per platform. ASCII-only by
/// design — filesystem case folding is Unicode-wide, so names that reach
/// the filesystem are restricted to ASCII (archive_name_ascii) rather
/// than chasing per-volume Unicode folding rules.
std::string fold_archive_name(std::string_view name);

/// True when `name` contains only printable ASCII — the precondition for
/// fold_archive_name's collision guarantee to cover the filesystem's.
bool archive_name_ascii(std::string_view name);

/// Compress + evaluate every field of `dataset` at `target_psnr_db`.
BatchResult run_fixed_psnr_batch(const data::Dataset& dataset, double target_psnr_db,
                                 const BatchOptions& options = {});

/// Span-backed variant: the fields are borrowed views, so a caller that
/// already owns the storage (the Session facade, a service buffer) runs
/// the batch without duplicating the dataset. The Dataset overload
/// delegates here.
BatchResult run_fixed_psnr_batch(std::span<const data::FieldView> fields,
                                 std::string_view dataset_name,
                                 double target_psnr_db,
                                 const BatchOptions& options = {});

/// Sweep several PSNR targets (one BatchResult per target) — a Table II row
/// block for one dataset.
std::vector<BatchResult> run_fixed_psnr_sweep(const data::Dataset& dataset,
                                              std::span<const double> targets,
                                              const BatchOptions& options = {});

}  // namespace fpsnr::core

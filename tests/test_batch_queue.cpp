// The global-work-queue batch engine vs. the single-field pipeline:
// for every field of a mixed-shape dataset (1-D/2-D/3-D, tiny to huge,
// smooth to incompressible), the batch archive must be byte-identical to a
// sequential single-field compress at ANY thread count — under uniform and
// adaptive budgets, through the in-memory and the streaming writers, on
// the queue and on the sequential fallback path.
#include "core/batch.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "core/pipeline.h"
#include "data/synth.h"
#include "fpsnr/fpsnr.h"

namespace core = fpsnr::core;
namespace data = fpsnr::data;

namespace {

/// Mixed field shapes: the CESM-style scenario the queue exists for —
/// tiny slices that underfill the pool next to volumes with many blocks.
data::Dataset mixed_dataset() {
  data::Dataset ds;
  ds.name = "mixed";
  {
    data::Dims d{257};  // 1-D tiny: a single block
    ds.fields.emplace_back("line", d, data::smoothed_noise(d, 11, 3));
  }
  {
    data::Dims d{48, 32};  // 2-D small
    ds.fields.emplace_back("slice", d, data::cosine_mixture(d, 12, 5));
  }
  {
    data::Dims d{4, 4096};  // pancake: few rows, long stride
    ds.fields.emplace_back("pancake", d, data::smoothed_noise(d, 13, 2));
  }
  {
    data::Dims d{24, 40, 40};  // 3-D mid
    ds.fields.emplace_back("brick", d, data::cosine_mixture(d, 14, 4));
  }
  {
    data::Dims d{48, 64, 64};  // the "huge" one: dozens of blocks
    auto v = data::smoothed_noise(d, 15, 2);
    data::add_scaled(v, data::cosine_mixture(d, 16, 3), 0.5f);
    ds.fields.emplace_back("volume", d, std::move(v));
  }
  {
    data::Dims d{64, 64};  // constant: vr == 0 edge case
    ds.fields.emplace_back("flat", d,
                           std::vector<float>(d.count(), 3.25f));
  }
  {
    data::Dims d{32, 128};  // pure noise: exercises store demotion
    ds.fields.emplace_back("noise", d, data::white_noise(d.count(), 17));
  }
  return ds;
}

/// The reference bytes: a single-field run through the pipeline facade.
std::vector<std::uint8_t> single_field_bytes(const data::Field& field,
                                             double target_db,
                                             const core::CompressOptions& base) {
  core::CompressOptions opts = base;
  opts.parallel.threads = 1;
  return core::compress_blocked<float>(field.span(), field.dims,
                                       core::ControlRequest::fixed_psnr(target_db),
                                       opts)
      .stream;
}

std::vector<std::uint8_t> read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

class TempDir {
 public:
  explicit TempDir(const char* tag)
      : path_(std::filesystem::temp_directory_path() /
              (std::string("fpsnr_batchq_") + tag)) {
    std::filesystem::remove_all(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

}  // namespace

TEST(BatchQueue, ByteIdenticalToSingleFieldAtAnyThreadCount) {
  const auto ds = mixed_dataset();
  const double target = 72.0;
  std::vector<std::vector<std::uint8_t>> reference;
  for (const auto& f : ds.fields)
    reference.push_back(single_field_bytes(f, target, {}));

  for (std::size_t threads : {1u, 2u, 8u}) {
    core::BatchOptions opts;
    opts.threads = threads;
    opts.keep_streams = true;
    const auto batch = core::run_fixed_psnr_batch(ds, target, opts);
    ASSERT_EQ(batch.fields.size(), ds.fields.size());
    for (std::size_t i = 0; i < ds.fields.size(); ++i) {
      EXPECT_EQ(batch.fields[i].field_name, ds.fields[i].name);
      EXPECT_EQ(batch.fields[i].stream, reference[i])
          << ds.fields[i].name << " @ " << threads << " threads";
      EXPECT_TRUE(batch.fields[i].actual_psnr_db > 0.0);
    }
  }
}

TEST(BatchQueue, AdaptiveBudgetsStayByteIdentical) {
  const auto ds = mixed_dataset();
  const double target = 66.0;
  core::CompressOptions base;
  base.budget = core::BudgetMode::Adaptive;
  std::vector<std::vector<std::uint8_t>> reference;
  for (const auto& f : ds.fields)
    reference.push_back(single_field_bytes(f, target, base));

  for (std::size_t threads : {2u, 8u}) {
    core::BatchOptions opts;
    opts.compress.budget = core::BudgetMode::Adaptive;
    opts.threads = threads;
    opts.keep_streams = true;
    const auto batch = core::run_fixed_psnr_batch(ds, target, opts);
    for (std::size_t i = 0; i < ds.fields.size(); ++i)
      EXPECT_EQ(batch.fields[i].stream, reference[i])
          << ds.fields[i].name << " @ " << threads << " threads (adaptive)";
  }
}

TEST(BatchQueue, StreamingWritersMatchInMemoryBytes) {
  const auto ds = mixed_dataset();
  const double target = 70.0;
  const TempDir dir("stream");

  core::BatchOptions opts;
  opts.threads = 8;
  opts.stream_dir = dir.str();
  const auto batch = core::run_fixed_psnr_batch(ds, target, opts);

  for (std::size_t i = 0; i < ds.fields.size(); ++i) {
    const auto& out = batch.fields[i];
    ASSERT_FALSE(out.archive_path.empty());
    EXPECT_TRUE(out.stream.empty());  // streaming keeps nothing in memory
    EXPECT_EQ(read_all(out.archive_path),
              single_field_bytes(ds.fields[i], target, {}))
        << ds.fields[i].name;
  }
}

TEST(BatchQueue, VerifyOffReportsTheExactRecordedPsnr) {
  const auto ds = mixed_dataset();
  const double target = 68.0;

  core::BatchOptions verified;
  verified.threads = 4;
  const auto measured = core::run_fixed_psnr_batch(ds, target, verified);

  core::BatchOptions trusted = verified;
  trusted.verify = false;
  const auto recorded = core::run_fixed_psnr_batch(ds, target, trusted);

  for (std::size_t i = 0; i < ds.fields.size(); ++i) {
    // The FPBK v2 per-block SSE column is exact, so the compress-time PSNR
    // and the decode-and-measure PSNR are the same number (1e-6 dB is the
    // PR-3 exactness contract; the flat field is +inf on both sides).
    const double a = measured.fields[i].actual_psnr_db;
    const double b = recorded.fields[i].actual_psnr_db;
    if (std::isinf(a) || std::isinf(b))
      EXPECT_EQ(a, b) << ds.fields[i].name;
    else
      EXPECT_NEAR(a, b, 1e-6) << ds.fields[i].name;
    EXPECT_EQ(measured.fields[i].met_target, recorded.fields[i].met_target);
  }
}

TEST(BatchQueue, ExplicitTileAndEnginePassThrough) {
  const auto ds = mixed_dataset();
  const double target = 64.0;
  core::CompressOptions base;
  base.engine = core::kCodecInterp;
  base.parallel.tile = {7};  // deliberately awkward slab tile

  core::BatchOptions opts;
  opts.compress = base;
  opts.threads = 8;
  opts.keep_streams = true;
  const auto batch = core::run_fixed_psnr_batch(ds, target, opts);
  for (std::size_t i = 0; i < ds.fields.size(); ++i)
    EXPECT_EQ(batch.fields[i].stream,
              single_field_bytes(ds.fields[i], target, base))
        << ds.fields[i].name << " (interp, tile {7})";
}

TEST(BatchQueue, CollidingStreamPathsAreRejected) {
  // Name flattening maps "u/v" and "u_v" to the same archive file; two
  // writers on one path would corrupt it, so the batch must refuse.
  data::Dataset ds;
  ds.name = "collide";
  data::Dims d{32, 32};
  ds.fields.emplace_back("u/v", d, data::smoothed_noise(d, 21, 2));
  ds.fields.emplace_back("u_v", d, data::smoothed_noise(d, 22, 2));
  const TempDir dir("collide");
  core::BatchOptions opts;
  opts.stream_dir = dir.str();
  EXPECT_THROW(core::run_fixed_psnr_batch(ds, 70.0, opts),
               std::invalid_argument);

  // Case-only differences are one file on default macOS/Windows volumes;
  // the guard must reject them everywhere, not just where they collide.
  data::Dataset cased;
  cased.name = "cased";
  cased.fields.emplace_back("U", d, data::smoothed_noise(d, 23, 2));
  cased.fields.emplace_back("u", d, data::smoothed_noise(d, 24, 2));
  EXPECT_THROW(core::run_fixed_psnr_batch(cased, 70.0, opts),
               std::invalid_argument);

  // Non-ASCII names fold per-volume ("Ä" vs "ä" on APFS) — outside what
  // the ASCII collision guard can cover, so streaming refuses them.
  data::Dataset unicode;
  unicode.name = "unicode";
  unicode.fields.emplace_back("\xC3\x84", d, data::smoothed_noise(d, 25, 2));
  EXPECT_THROW(core::run_fixed_psnr_batch(unicode, 70.0, opts),
               std::invalid_argument);

  // In-memory runs have no shared file, so the same datasets are fine.
  opts.stream_dir.clear();
  EXPECT_NO_THROW(core::run_fixed_psnr_batch(ds, 70.0, opts));
  EXPECT_NO_THROW(core::run_fixed_psnr_batch(cased, 70.0, opts));
}

TEST(BatchQueue, StreamWaveCapKeepsArchivesByteIdentical) {
  // Streaming holds an open fd per in-flight field, so large manifests
  // are processed in waves of max_open_streams; waves are a scheduling
  // boundary only — the per-field bytes must not move.
  const auto ds = mixed_dataset();
  const double target = 71.0;
  const TempDir dir("wave");

  core::BatchOptions opts;
  opts.threads = 8;
  opts.stream_dir = dir.str();
  opts.max_open_streams = 2;  // 7 fields -> 4 waves
  const auto batch = core::run_fixed_psnr_batch(ds, target, opts);

  ASSERT_EQ(batch.fields.size(), ds.fields.size());
  for (std::size_t i = 0; i < ds.fields.size(); ++i)
    EXPECT_EQ(read_all(batch.fields[i].archive_path),
              single_field_bytes(ds.fields[i], target, {}))
        << ds.fields[i].name << " (wave cap 2)";
}

TEST(BatchQueue, ArchivesDecodeThroughTheRegularReaders) {
  const auto ds = mixed_dataset();
  core::BatchOptions opts;
  opts.threads = 8;
  opts.keep_streams = true;
  const auto batch = core::run_fixed_psnr_batch(ds, 70.0, opts);
  for (std::size_t i = 0; i < ds.fields.size(); ++i) {
    const auto decoded =
        core::decompress_blocked<float>(batch.fields[i].stream, 2);
    ASSERT_EQ(decoded.values.size(), ds.fields[i].size());
    EXPECT_EQ(decoded.dims, ds.fields[i].dims);
  }
}

TEST(BatchQueue, SessionFacadeBatchMatchesEngineBytes) {
  // The public Session::compress_batch wraps this engine; its per-field
  // archives must be the byte-exact single-field references, through both
  // the in-memory and the streaming paths.
  const auto ds = mixed_dataset();
  const double target = 72.0;

  fpsnr::SessionOptions sopts;
  sopts.threads = 4;
  const fpsnr::Session session(sopts);

  fpsnr::BatchJob job;
  job.target = fpsnr::FixedPsnr{target};
  job.keep_archives = true;
  for (const auto& f : ds.fields)
    job.fields.push_back(
        {f.name, fpsnr::Source::memory(f.span(), f.dims.extents)});
  const auto batch = session.compress_batch(job);
  ASSERT_EQ(batch.fields.size(), ds.fields.size());
  for (std::size_t i = 0; i < ds.fields.size(); ++i)
    EXPECT_EQ(batch.fields[i].archive,
              single_field_bytes(ds.fields[i], target, {}))
        << ds.fields[i].name;

  TempDir dir("facade_stream");
  fpsnr::BatchJob stream_job = job;
  stream_job.keep_archives = false;
  stream_job.stream_dir = dir.str();
  const auto streamed = session.compress_batch(stream_job);
  for (std::size_t i = 0; i < ds.fields.size(); ++i)
    EXPECT_EQ(read_all(streamed.fields[i].archive_path),
              single_field_bytes(ds.fields[i], target, {}))
        << ds.fields[i].name;
}

// fpsnr::Session — implementation of the public facade.
//
// This is the only translation unit that bridges the installable
// include/fpsnr headers to the internal src/ layers: it resolves the
// engine name against the codec registry, has that codec apply the
// CodecTuning overrides onto core::CompressOptions, routes every Target
// through the block-parallel pipeline, and maps Source/Sink shapes onto the
// in-memory, raw-file and file-writer entry points. Every archive Source
// becomes bytes in one place (with_archive_bytes: the caller's span, or a
// read-only mapping of the file) before it is decoded. Archives
// are byte-identical to the core:: pipeline functions for equivalent
// options by construction — both run the same engine.
#include "fpsnr/fpsnr.h"

#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <thread>

#include "core/batch.h"
#include "core/compressor.h"
#include "core/pipeline.h"
#include "facade/facade_detail.h"
#include "io/archive.h"
#include "io/streaming_archive.h"
#include "sz/stream_format.h"
#include "transform/transform_codec.h"

namespace fpsnr {

namespace detail {

/// session.cpp's window into the Source/Sink/CodecTuning internals — the
/// public headers stay std-only, the bridging stays here.
struct Access {
  using SourceKind = Source::Kind;
  using SinkKind = Sink::Kind;

  static SourceKind kind(const Source& s) { return s.kind_; }
  static const void* data(const Source& s) { return s.data_; }
  static std::size_t count(const Source& s) { return s.count_; }
  static const std::vector<std::size_t>& dims(const Source& s) {
    return s.dims_;
  }
  static const std::string& path(const Source& s) { return s.path_; }

  static SinkKind kind(const Sink& s) { return s.kind_; }
  static const std::string& path(const Sink& s) { return s.path_; }

  static const auto& values(const CodecTuning& t) { return t.values_; }
};

}  // namespace detail

namespace {

using detail::Access;
using SourceKind = Access::SourceKind;
using SinkKind = Access::SinkKind;

}  // namespace

// --- request / options resolution (shared with src/temporal via
// facade/facade_detail.h) ----------------------------------------------------

namespace facade {

core::ControlRequest to_request(const Target& target) {
  struct Mapper {
    core::ControlRequest operator()(const FixedPsnr& t) const {
      return core::ControlRequest::fixed_psnr(t.db);
    }
    core::ControlRequest operator()(const FixedNrmse& t) const {
      return core::ControlRequest::fixed_nrmse(t.nrmse);
    }
    core::ControlRequest operator()(const PointwiseAbs& t) const {
      return core::ControlRequest::absolute(t.bound);
    }
    core::ControlRequest operator()(const PointwiseRel& t) const {
      return core::ControlRequest::pointwise(t.fraction);
    }
    core::ControlRequest operator()(const ValueRangeRel& t) const {
      return core::ControlRequest::relative(t.fraction);
    }
    core::ControlRequest operator()(const FixedRate& t) const {
      return core::ControlRequest::fixed_rate(t.bits_per_value);
    }
  };
  return std::visit(Mapper{}, target);
}

core::CompressOptions resolve_session_options(const SessionOptions& opts,
                                              std::size_t* threads_out) {
  core::CompressOptions base;
  auto& registry = core::CodecRegistry::instance();
  base.engine = registry.id_of(opts.engine);  // may throw

  if (opts.budget == "uniform") base.budget = core::BudgetMode::Uniform;
  else if (opts.budget == "adaptive")
    base.budget = core::BudgetMode::Adaptive;
  else
    throw std::invalid_argument(
        "Session: budget must be uniform|adaptive, got '" + opts.budget +
        "'");

  // Validate EVERY tuning entry up front (unknown engines, keys or values
  // are session-construction errors, not job-time surprises); only the
  // selected engine's overrides land on the base options.
  for (const auto& [engine_name, kv] : Access::values(opts.tuning)) {
    const core::CodecId id = registry.id_of(engine_name);  // may throw
    core::CompressOptions unused;
    for (const auto& [key, value] : kv)
      registry.at(id).configure(key, value,
                                id == base.engine ? base : unused);
  }

  base.parallel.tile = opts.tile.extents;
  const std::size_t threads =
      opts.threads ? opts.threads
                   : std::max<std::size_t>(
                         1, std::thread::hardware_concurrency());
  base.parallel.threads = threads;
  if (threads_out) *threads_out = threads;
  return base;
}

}  // namespace facade

namespace {

/// Facade name of a recorded control mode — derived from target_name() so
/// include/fpsnr/target.h stays the single string table.
std::string facade_mode_name(core::ControlMode m) {
  switch (m) {
    case core::ControlMode::Absolute: return std::string(target_name(PointwiseAbs{}));
    case core::ControlMode::ValueRangeRelative: return std::string(target_name(ValueRangeRel{}));
    case core::ControlMode::PointwiseRelative: return std::string(target_name(PointwiseRel{}));
    case core::ControlMode::FixedPsnr: return std::string(target_name(FixedPsnr{}));
    case core::ControlMode::FixedRate: return std::string(target_name(FixedRate{}));
    case core::ControlMode::FixedNrmse: return std::string(target_name(FixedNrmse{}));
  }
  return "unknown";
}

std::string facade_mode_name(sz::ErrorBoundMode m) {
  switch (m) {
    case sz::ErrorBoundMode::Absolute: return facade_mode_name(core::ControlMode::Absolute);
    case sz::ErrorBoundMode::ValueRangeRelative: return facade_mode_name(core::ControlMode::ValueRangeRelative);
    case sz::ErrorBoundMode::PointwiseRelative: return facade_mode_name(core::ControlMode::PointwiseRelative);
  }
  return "unknown";
}

// --- I/O helpers ------------------------------------------------------------

std::vector<float> load_raw_f32(const std::string& path,
                                const data::Dims& dims) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  const std::vector<std::uint8_t> raw{std::istreambuf_iterator<char>(in),
                                      std::istreambuf_iterator<char>()};
  if (raw.size() % sizeof(float) != 0)
    throw std::invalid_argument(path + ": size is not a multiple of 4");
  std::vector<float> values(raw.size() / sizeof(float));
  if (!raw.empty()) std::memcpy(values.data(), raw.data(), raw.size());
  if (values.size() != dims.count())
    throw std::invalid_argument(path + ": dims do not match file size");
  return values;
}

data::Dims to_dims(const std::vector<std::size_t>& extents) {
  return data::Dims(std::vector<std::size_t>(extents));
}

std::vector<std::size_t> from_dims(const data::Dims& dims) {
  return dims.extents;
}

}  // namespace

// --- tuning_keys (declared in fpsnr/tuning.h) -------------------------------

std::vector<TuningKey> tuning_keys(std::string_view engine) {
  const auto& registry = core::CodecRegistry::instance();
  const core::BlockCodec& codec = registry.at(registry.id_of(engine));
  const core::CompressOptions defaults;
  std::vector<TuningKey> out;
  for (const core::TuningKnob* k : codec.tuning())
    out.push_back({std::string(k->key), std::string(k->doc), k->show(defaults)});
  return out;
}

// --- Session ----------------------------------------------------------------

struct Session::Impl {
  SessionOptions opts;
  core::CompressOptions base;   ///< engine/budget/tuning resolved once
  std::size_t threads = 1;

  explicit Impl(SessionOptions o) : opts(std::move(o)) {
    base = facade::resolve_session_options(opts, &threads);
  }
};

Session::Session() : Session(SessionOptions{}) {}

Session::Session(SessionOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Session::~Session() = default;
Session::Session(Session&&) noexcept = default;
Session& Session::operator=(Session&&) noexcept = default;

const SessionOptions& Session::options() const { return impl_->opts; }

std::size_t Session::threads() const { return impl_->threads; }

std::vector<std::string> Session::engines() {
  std::vector<std::string> out;
  for (std::string_view n : core::CodecRegistry::instance().names())
    out.emplace_back(n);
  return out;
}

namespace {

/// The field a Source resolves to: borrowed spans for memory sources, an
/// owned buffer for raw files.
template <typename T>
struct FieldView {
  std::span<const T> values;
  data::Dims dims;
  std::vector<T> owned;
};

template <typename T>
CompressReport run_compress(const core::CompressOptions& base,
                            std::span<const T> values, const data::Dims& dims,
                            const Target& target, const Sink& sink) {
  const core::ControlRequest request = facade::to_request(target);

  CompressReport report;
  core::CompressResult result;

  if (Access::kind(sink) == SinkKind::File) {
    io::StreamingStats stats;
    result = core::compress_to_file<T>(values, dims, request, base,
                                       Access::path(sink), &stats);
    report.archive_path = Access::path(sink);
    report.peak_buffered_bytes = stats.peak_buffered_bytes;
    report.peak_buffered_blocks = stats.peak_buffered_blocks;
  } else {
    result = core::compress_blocked<T>(values, dims, request, base);
    report.archive = std::move(result.stream);
  }
  report.block_count = result.block_count;
  report.tile = result.tile;

  report.value_count = result.info.value_count;
  report.compressed_bytes = result.info.compressed_bytes;
  report.compression_ratio = result.info.compression_ratio;
  report.bit_rate = result.info.bit_rate;
  report.predicted_psnr_db = result.predicted_psnr_db;
  report.achieved_psnr_db = result.achieved_psnr_db;
  report.rel_bound_used = result.rel_bound_used;
  report.outlier_count = result.info.outlier_count;
  return report;
}

}  // namespace

CompressReport Session::compress(const Source& input, const Target& target,
                                 const Sink& output) const {
  switch (Access::kind(input)) {
    case SourceKind::FieldF32: {
      const std::span<const float> values(
          static_cast<const float*>(Access::data(input)),
          Access::count(input));
      return run_compress<float>(impl_->base, values,
                                 to_dims(Access::dims(input)), target,
                                 output);
    }
    case SourceKind::FieldF64: {
      const std::span<const double> values(
          static_cast<const double*>(Access::data(input)),
          Access::count(input));
      return run_compress<double>(impl_->base, values,
                                  to_dims(Access::dims(input)), target,
                                  output);
    }
    case SourceKind::RawFileF32: {
      const data::Dims dims = to_dims(Access::dims(input));
      const auto values = load_raw_f32(Access::path(input), dims);
      return run_compress<float>(impl_->base, values, dims, target, output);
    }
    case SourceKind::ArchiveMemory:
    case SourceKind::ArchiveFile:
      throw std::invalid_argument(
          "Session::compress: input must be a field source "
          "(Source::memory(values, dims) or Source::raw_file)");
  }
  throw std::logic_error("Session::compress: unreachable source kind");
}

namespace {

Field to_field(sz::Decompressed<float>&& d) {
  Field f;
  f.dims = from_dims(d.dims);
  f.f32 = std::move(d.values);
  return f;
}

Field to_field(sz::Decompressed<double>&& d) {
  Field f;
  f.dims = from_dims(d.dims);
  f.f64 = std::move(d.values);
  return f;
}

/// The one place an archive Source becomes bytes: the caller's span for
/// memory, a read-only mapping for files (FPBK and flat alike). `fn` runs
/// on the bytes while the mapping is alive, so memory and file sources
/// decode — and fail — through the same code.
template <typename Fn>
auto with_archive_bytes(const Source& archive, const char* caller, Fn&& fn) {
  switch (Access::kind(archive)) {
    case SourceKind::ArchiveMemory:
      return fn(std::span<const std::uint8_t>(
          static_cast<const std::uint8_t*>(Access::data(archive)),
          Access::count(archive)));
    case SourceKind::ArchiveFile: {
      const io::MappedFile file(Access::path(archive));
      return fn(file.bytes());
    }
    default:
      throw std::invalid_argument(
          std::string(caller) +
          ": input must be an archive source (Source::memory(bytes) or "
          "Source::file)");
  }
}

bool records_double(std::span<const std::uint8_t> bytes) {
  return core::archive_scalar(bytes) == sz::ScalarType::Float64;
}

Inspection inspect_bytes(std::span<const std::uint8_t> bytes) {
  Inspection out;
  out.archive_bytes = bytes.size();
  switch (core::archive_format(bytes)) {
    case core::ArchiveFormat::BlockContainer: {
      const auto info = core::inspect_block_stream(bytes);
      out.block_container = true;
      out.version = info.version;
      out.codec = std::string(info.codec_name);
      out.target = facade_mode_name(info.control_mode);
      out.target_value = info.control_value;
      out.budget = info.budget_mode == core::BudgetMode::Adaptive
                       ? "adaptive"
                       : "uniform";
      out.dims = from_dims(info.dims);
      out.block_count = info.block_count;
      out.tile = info.tile;
      out.eb_abs = info.eb_abs;
      out.value_range = info.value_range;
      out.achieved_psnr_db = info.achieved_psnr_db;
      out.temporal = info.temporal;
      out.delta = info.delta;
      out.series_id = info.series_id;
      out.timestep = info.timestep;
      out.ref_hash = info.ref_hash;
      out.temporal_blocks = info.temporal_blocks;
      return out;
    }
    case core::ArchiveFormat::FlatTransform: {
      // An FPTC header records its transform, dims, coefficient bin width
      // and value range — no control target and no measured error.
      const auto h = transform::inspect(bytes);
      const auto& registry = core::CodecRegistry::instance();
      out.codec = std::string(
          registry
              .at(h.kind == transform::Kind::HaarMultiLevel
                      ? core::kCodecTransformHaar
                      : core::kCodecTransformDct)
              .name());
      out.budget = "uniform";
      out.dims = from_dims(h.dims);
      out.eb_abs = h.bin_width / 2.0;  // the bin width is 2 * eb_abs
      out.value_range = h.value_range;
      out.achieved_psnr_db = std::numeric_limits<double>::quiet_NaN();
      return out;
    }
    case core::ArchiveFormat::FlatSz:
      break;
  }
  const auto h = sz::inspect(bytes);  // throws StreamError on foreign bytes
  out.codec = "sz-lorenzo";
  out.target = facade_mode_name(h.mode);
  out.target_value = h.user_bound;
  out.budget = "uniform";
  out.dims = from_dims(h.dims);
  out.eb_abs = h.eb_abs;
  out.value_range = h.value_range;
  out.achieved_psnr_db = std::numeric_limits<double>::quiet_NaN();
  return out;
}

}  // namespace

Field Session::decompress(const Source& archive) const {
  return with_archive_bytes(
      archive, "Session::decompress", [&](std::span<const std::uint8_t> b) {
        return records_double(b)
                   ? to_field(core::decompress<double>(b, impl_->threads))
                   : to_field(core::decompress<float>(b, impl_->threads));
      });
}

Field Session::decompress_block(const Source& archive,
                                std::size_t block_index) const {
  return with_archive_bytes(
      archive, "Session::decompress_block",
      [&](std::span<const std::uint8_t> b) {
        if (core::archive_format(b) != core::ArchiveFormat::BlockContainer)
          throw std::invalid_argument(
              "Session::decompress_block: archive is not a block-pipeline "
              "(FPBK) container");
        return records_double(b)
                   ? to_field(core::decompress_block<double>(b, block_index))
                   : to_field(core::decompress_block<float>(b, block_index));
      });
}

Inspection Session::inspect(const Source& archive) const {
  return with_archive_bytes(archive, "Session::inspect", inspect_bytes);
}

BatchReport Session::compress_batch(const BatchJob& job) const {
  const auto* psnr = std::get_if<FixedPsnr>(&job.target);
  if (!psnr)
    throw std::invalid_argument(
        "Session::compress_batch: only FixedPsnr targets are supported "
        "(the batch engine equalizes a dataset at one PSNR)");
  if (job.fields.empty())
    throw std::invalid_argument("Session::compress_batch: no fields");

  // Fields are borrowed as views — a memory-source batch never copies the
  // dataset; only raw-file fields are loaded, into `loaded`, which the
  // views then reference for the duration of the run.
  std::vector<data::FieldView> views;
  std::vector<std::vector<float>> loaded;
  views.reserve(job.fields.size());
  // Reserve up front: views hold spans into `loaded`'s vectors, and a
  // reallocation of the outer vector would move them (the inner buffers
  // would survive a move, but reserving keeps the aliasing obviously
  // sound).
  loaded.reserve(job.fields.size());
  for (const BatchEntry& entry : job.fields) {
    if (entry.name.empty())
      throw std::invalid_argument("Session::compress_batch: empty field name");
    if (!core::archive_name_ascii(entry.name))
      throw std::invalid_argument("Session::compress_batch: field name '" +
                                  entry.name + "' must be printable ASCII");
    if (entry.name.find_first_of("/\\:") != std::string::npos)
      throw std::invalid_argument(
          "Session::compress_batch: field name '" + entry.name +
          "' must not contain path separators or ':'");
    for (const auto& existing : views)
      if (core::fold_archive_name(existing.name) ==
          core::fold_archive_name(entry.name))
        throw std::invalid_argument(
            "Session::compress_batch: duplicate field name '" + entry.name +
            "' (names are compared case-insensitively)");

    switch (Access::kind(entry.source)) {
      case SourceKind::FieldF32: {
        const auto* p = static_cast<const float*>(Access::data(entry.source));
        views.push_back(
            {entry.name, to_dims(Access::dims(entry.source)),
             std::span<const float>(p, Access::count(entry.source))});
        break;
      }
      case SourceKind::RawFileF32: {
        const data::Dims dims = to_dims(Access::dims(entry.source));
        loaded.push_back(load_raw_f32(Access::path(entry.source), dims));
        views.push_back({entry.name, dims,
                         std::span<const float>(loaded.back())});
        break;
      }
      case SourceKind::FieldF64:
        throw std::invalid_argument(
            "Session::compress_batch: the batch engine is float32-only "
            "(field '" + entry.name + "' is float64)");
      default:
        throw std::invalid_argument(
            "Session::compress_batch: field '" + entry.name +
            "' must be a field source");
    }
  }

  core::BatchOptions opts;
  opts.compress = impl_->base;
  opts.threads = impl_->threads;
  opts.verify = job.verify;
  opts.stream_dir = job.stream_dir;
  opts.keep_streams = job.keep_archives;

  core::BatchResult result =
      core::run_fixed_psnr_batch(views, "session-batch", psnr->db, opts);

  BatchReport report;
  report.target_psnr_db = result.target_psnr_db;
  for (core::FieldOutcome& f : result.fields) {
    BatchFieldReport r;
    r.name = f.field_name;
    r.target_psnr_db = f.target_psnr_db;
    r.predicted_psnr_db = f.predicted_psnr_db;
    r.actual_psnr_db = f.actual_psnr_db;
    r.rel_bound_used = f.rel_bound_used;
    r.compression_ratio = f.compression_ratio;
    r.bit_rate = f.bit_rate;
    r.max_abs_error = f.max_abs_error;
    r.outlier_count = f.outlier_count;
    r.compressed_bytes = f.compressed_bytes;
    r.met_target = f.met_target;
    r.archive = std::move(f.stream);
    r.archive_path = f.archive_path;
    report.fields.push_back(std::move(r));
  }
  for (std::size_t i = 0; i < report.fields.size(); ++i)
    report.fields[i].value_count = views[i].size();
  const auto stats = result.psnr_stats();
  report.mean_psnr_db = stats.mean();
  report.stdev_psnr_db = stats.stdev();
  report.met_fraction = result.met_fraction();
  return report;
}

}  // namespace fpsnr

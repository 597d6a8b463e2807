// fpsnr_cli — command-line front end for the fixed-PSNR compressor.
//
//   fpsnr_cli compress   -i data.f32 -d 100x500x500 -m psnr -v 80 -o out.fpbk
//   fpsnr_cli decompress -i out.fpbk -o restored.f32
//   fpsnr_cli inspect    -i out.fpbk
//   fpsnr_cli demo       --dataset atm --psnr 80
//
// Raw input files are little-endian float32 arrays in C order. All
// compression work routes through the fpsnr::Session facade
// (include/fpsnr) — the CLI owns only argument parsing, raw-file I/O, and
// report formatting. Engine names (and the --engine help/error listing)
// come from the live codec registry, so a newly registered codec is
// immediately addressable here with no CLI change.
#include <cmath>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "fpsnr/fpsnr.h"
#include "fpsnr/service.h"

#include "core/batch.h"
#include "core/codec_registry.h"
#include "data/dataset.h"
#include "io/archive.h"
#include "simd/dispatch.h"

namespace {

using namespace fpsnr;

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::cerr << "error: " << msg << "\n\n";
  std::cerr <<
      "fpsnr_cli " << kVersionString << " — fixed-PSNR lossy compression\n"
      "\n"
      "  fpsnr_cli compress   -i IN.f32 -d DIMS -m MODE -v VALUE -o OUT.fpbk\n"
      "      DIMS        e.g. 512, 1800x3600, 100x500x500 (C order)\n"
      "      MODE        psnr | abs | rel | pwrel | nrmse | rate\n"
      "      VALUE       target PSNR (dB) for psnr, bits/value for rate,\n"
      "                  bound otherwise\n"
      "      --predictor lorenzo | hybrid   (default lorenzo; sz engine)\n"
      "      --engine    codec name or alias (default sz); registered:\n"
      << core::CodecRegistry::instance().listing() <<
      "      --budget    uniform | adaptive (default uniform; adaptive\n"
      "                  reallocates per-block error bounds by smoothness\n"
      "                  at the same global PSNR target)\n"
      "      --threads N     block-parallel compression on N workers\n"
      "                      (output bytes are identical for every N)\n"
      "      --simd B        pin the vector backend: auto|scalar|avx2|neon\n"
      "                      (default auto: FPSNR_SIMD env, then CPUID;\n"
      "                      archives are byte-identical on every backend;\n"
      "                      accepted by every subcommand)\n"
      "      --tile NxMxK    per-axis tile extents of the block grid\n"
      "                      (default: auto near-cubic; a 0 extent — or a\n"
      "                      missing trailing axis — spans the field, so\n"
      "                      --tile R is an axis-0 slab of R rows)\n"
      "      --block-size R  DEPRECATED alias for --tile R\n"
      "      --stream        DEPRECATED, no effect: -o always receives\n"
      "                      blocks as workers finish (peak memory stays\n"
      "                      O(in-flight blocks))\n"
      "      --report-psnr   print the exact achieved PSNR of the archive\n"
      "  fpsnr_cli decompress -i IN.fpbk -o OUT.f32 [--threads N] [--block I]\n"
      "      IN is memory-mapped: with --block only that block's bytes\n"
      "      are ever read\n"
      "      --block I   random-access decode of block I only\n"
      "      --mmap      DEPRECATED, no effect: IN is always mapped\n"
      "      --report-psnr   print the archive's recorded exact PSNR (v2)\n"
      "  fpsnr_cli inspect    -i IN.fpbk\n"
      "  fpsnr_cli compress-batch -i MANIFEST -o OUTDIR [--psnr DB]\n"
      "      compress every field of a dataset manifest to the same PSNR\n"
      "      target, interleaving all fields' blocks on one global work\n"
      "      queue; one FPBK archive per field lands in OUTDIR/<name>.fpbk.\n"
      "      MANIFEST is a text file, one field per line:\n"
      "          <name> <raw-f32-file> <dims>     # '#' starts a comment\n"
      "      (paths are relative to the manifest's directory)\n"
      "      --threads/--engine/--budget/--tile/--predictor pass\n"
      "      through to every field; each archive spills to disk as its\n"
      "      blocks finish (--stream is DEPRECATED and has no effect);\n"
      "      --no-verify skips the decode check and reports the\n"
      "      exact compress-time PSNR from the FPBK v2 SSE index instead\n"
      "  fpsnr_cli compress-series -i MANIFEST -d DIMS -o OUTDIR [-m MODE -v V]\n"
      "      temporal compression of an ordered snapshot series: each frame\n"
      "      is coded per-tile as a delta against the previous frame's\n"
      "      reconstruction (FPBK v4 chain) or spatially, whichever is\n"
      "      smaller; the -m/-v target holds for every frame against its\n"
      "      ORIGINAL data. MANIFEST is a text file, one raw-f32 snapshot\n"
      "      file per line in time order ('#' comments; paths relative to\n"
      "      the manifest); all snapshots share DIMS.\n"
      "      --series NAME          chain identity stamped into every frame\n"
      "                             (default: the manifest's file stem)\n"
      "      --keyframe-interval N  spatial keyframe every N frames\n"
      "                             (default 8; 0 = first frame only,\n"
      "                             1 = every frame)\n"
      "      frames land as OUTDIR/<series>_<t>.fpbk; 'inspect' shows each\n"
      "      frame's chain position\n"
      "  fpsnr_cli demo       [--dataset nyx|atm|hurricane] [--psnr DB]\n"
      "  fpsnr_cli pack       --dataset NAME --psnr DB -o OUT.fpar\n"
      "      compress every field of a synthetic dataset into one archive\n"
      "  fpsnr_cli list       -i IN.fpar\n"
      "  fpsnr_cli unpack     -i IN.fpar --field NAME -o OUT.f32\n"
      "  fpsnr_cli serve      --socket PATH | --tcp PORT  [--threads N]\n"
      "      run fpsnrd, the resident compression service: persistent\n"
      "      Session pool, admission control, priority + deadline\n"
      "      scheduling, live metrics (STATS request; SIGUSR1 dumps to\n"
      "      stderr), graceful drain on SIGTERM/SIGINT (exit 0)\n"
      "      --max-frame-mb M     per-request frame cap (default 1024)\n"
      "      --max-inflight-mb M  admission budget (default 256)\n"
      "  fpsnr_cli client OP  --socket PATH | --tcp PORT\n"
      "      OP = ping | compress | decompress | inspect | stats | shutdown\n"
      "      compress:   -i IN.f32 -d DIMS -m MODE -v VALUE -o OUT.fpbk\n"
      "                  [--engine E] [--budget B] [--tile NxMxK]\n"
      "      decompress: -i IN.fpbk -o OUT.f32\n"
      "      inspect:    -i IN.fpbk\n"
      "      --priority high|normal   jump the server's FIFO lane\n"
      "      --deadline-ms N          reject if not started in time\n"
      "      archives are byte-identical to in-process compression\n";
  std::exit(2);
}

/// Checked integer-flag parser — the parse_dims guard generalized to every
/// numeric flag: a malformed value ('8abc', '-1', '', out of range) is a
/// usage error with exit 2, never a silent truncation, a 2^64 wraparound,
/// or an uncaught std::stoull throw.
std::size_t parse_count(const std::string& flag, const std::string& text) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos)
    usage((flag + " wants a non-negative integer, got '" + text + "'").c_str());
  try {
    return std::stoull(text);
  } catch (const std::out_of_range&) {
    usage((flag + " value '" + text + "' is out of range").c_str());
  }
}

/// Checked floating-point flag parser: the whole token must parse and be
/// finite ('80abc', '', 'nan' are usage errors with exit 2).
double parse_number(const std::string& flag, const std::string& text) {
  try {
    std::size_t consumed = 0;
    const double value = std::stod(text, &consumed);
    if (consumed != text.size() || !std::isfinite(value))
      usage((flag + " wants a finite number, got '" + text + "'").c_str());
    return value;
  } catch (const std::invalid_argument&) {
    usage((flag + " wants a finite number, got '" + text + "'").c_str());
  } catch (const std::out_of_range&) {
    usage((flag + " value '" + text + "' is out of range").c_str());
  }
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) usage(("cannot open " + path).c_str());
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Write (or die with exit 1). An unwritable path must be an I/O *error*,
/// not a usage error, and it must be detected here exactly like the
/// archive writer detects it: open, write, AND flush are all
/// checked, so ENOSPC/EDQUOT surfacing only at flush time still fails the
/// run instead of silently exiting 0 with a truncated file.
void write_file(const std::string& path, const void* data, std::size_t bytes) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(bytes));
  out.flush();
  if (!out) throw std::runtime_error("write failed on " + path);
}

/// Write a decompressed field back out as raw little-endian scalars.
void write_field(const std::string& path, const Field& field) {
  if (field.is_double())
    write_file(path, field.f64.data(), field.f64.size() * sizeof(double));
  else
    write_file(path, field.f32.data(), field.f32.size() * sizeof(float));
}

data::Dims parse_dims(const std::string& s) {
  std::vector<std::size_t> extents;
  std::stringstream ss(s);
  std::string part;
  while (std::getline(ss, part, 'x')) {
    // std::stoull alone would accept '16y999' as 16 and wrap '-1' to
    // 2^64-1 — every token must be pure digits (and fit) or the geometry
    // silently changes.
    if (part.empty() || part.find_first_not_of("0123456789") != std::string::npos)
      usage(("bad dims '" + s + "': '" + part +
             "' is not a number (want e.g. 512, 1800x3600)").c_str());
    try {
      extents.push_back(std::stoull(part));
    } catch (const std::out_of_range&) {
      usage(("bad dims '" + s + "': '" + part + "' is out of range").c_str());
    }
  }
  return data::Dims(std::move(extents));
}

/// Parse --tile NxMxK. Same digit discipline as parse_dims, but 0 extents
/// are allowed (0 = span the field on that axis) and the shape is a
/// request, not a geometry — rank-vs-field validation happens at compress
/// time where the field's dims are known.
std::vector<std::size_t> parse_tile(const std::string& s) {
  std::vector<std::size_t> extents;
  std::stringstream ss(s);
  std::string part;
  while (std::getline(ss, part, 'x')) {
    if (part.empty() || part.find_first_not_of("0123456789") != std::string::npos)
      usage(("bad --tile '" + s + "': '" + part +
             "' is not a number (want e.g. 64, 64x64, 32x32x32)").c_str());
    try {
      extents.push_back(std::stoull(part));
    } catch (const std::out_of_range&) {
      usage(("bad --tile '" + s + "': '" + part + "' is out of range").c_str());
    }
  }
  if (extents.empty() || extents.size() > 3)
    usage(("bad --tile '" + s + "': want 1..3 'x'-separated extents").c_str());
  return extents;
}

/// Render a tile shape as "RxCxS" (or "auto" when empty).
std::string tile_text(const std::vector<std::size_t>& tile) {
  if (tile.empty()) return "auto";
  std::string out;
  for (std::size_t i = 0; i < tile.size(); ++i) {
    if (i) out += 'x';
    out += std::to_string(tile[i]);
  }
  return out;
}

Target parse_target(const std::string& mode, double value) {
  try {
    return make_target(mode, value);
  } catch (const std::invalid_argument&) {
    usage("unknown mode (want psnr|abs|rel|pwrel|nrmse|rate)");
  }
}

struct Args {
  std::string input, output, dims, mode = "psnr", dataset = "atm";
  std::string predictor = "lorenzo", engine = "sz", budget = "uniform", field;
  double value = 80.0;
  std::size_t threads = 0;
  std::string tile;            ///< --tile NxMxK; empty = auto
  std::size_t block_size = 0;  ///< deprecated --block-size alias (slab)
  std::optional<std::size_t> block;  ///< random-access block index
  bool report_psnr = false;  ///< print the exact recorded PSNR
  bool no_verify = false;    ///< batch: trust the recorded SSE, skip decode
  std::string simd;          ///< vector backend pin; empty = leave auto
  std::string socket;        ///< serve/client: unix-domain socket path
  std::size_t tcp_port = 0;  ///< serve/client: loopback TCP port
  std::string priority = "normal";  ///< client: request priority lane
  std::size_t deadline_ms = 0;      ///< client: per-request deadline
  std::size_t max_frame_mb = 1024;     ///< serve: per-frame payload cap
  std::size_t max_inflight_mb = 256;   ///< serve: admission byte budget
  std::string series;  ///< compress-series: chain name (default: manifest stem)
  std::size_t keyframe_interval = 8;  ///< compress-series: keyframe cadence
};

Args parse_args(int argc, char** argv, int first) {
  Args a;
  for (int i = first; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "-i" || flag == "--input") a.input = next();
    else if (flag == "-o" || flag == "--output") a.output = next();
    else if (flag == "-d" || flag == "--dims") a.dims = next();
    else if (flag == "-m" || flag == "--mode") a.mode = next();
    else if (flag == "-v" || flag == "--value" || flag == "--psnr")
      a.value = parse_number(flag, next());
    else if (flag == "--dataset") a.dataset = next();
    else if (flag == "--predictor") a.predictor = next();
    else if (flag == "--engine") a.engine = next();
    else if (flag == "--budget") a.budget = next();
    else if (flag == "--field") a.field = next();
    else if (flag == "--threads") a.threads = parse_count(flag, next());
    else if (flag == "--tile") a.tile = next();
    else if (flag == "--block-size") {
      a.block_size = parse_count(flag, next());
      // Deprecated alias for the axis-0 slab geometry; warn once, keep the
      // exit-code behaviour (including the parse errors above) unchanged.
      static bool warned = false;
      if (!warned) {
        warned = true;
        std::cerr << "warning: --block-size is deprecated; use --tile R "
                     "(an axis-0 slab of R rows)\n";
      }
    }
    else if (flag == "--block") a.block = parse_count(flag, next());
    else if (flag == "--stream") {
      // Deprecated: every file output spills as blocks finish. Accepted so
      // existing scripts keep working; warn once.
      static bool warned = false;
      if (!warned) {
        warned = true;
        std::cerr << "warning: --stream is deprecated and has no effect; "
                     "archives always spill to -o as blocks finish\n";
      }
    }
    else if (flag == "--mmap") {
      // Deprecated: every archive file is memory-mapped. Accepted so
      // existing scripts keep working; warn once.
      static bool warned = false;
      if (!warned) {
        warned = true;
        std::cerr << "warning: --mmap is deprecated and has no effect; "
                     "archive files are always memory-mapped\n";
      }
    }
    else if (flag == "--report-psnr") a.report_psnr = true;
    else if (flag == "--no-verify") a.no_verify = true;
    else if (flag == "--simd") a.simd = next();
    else if (flag == "--socket") a.socket = next();
    else if (flag == "--tcp") {
      a.tcp_port = parse_count(flag, next());
      if (a.tcp_port == 0 || a.tcp_port > 65535)
        usage("--tcp wants a port in 1..65535");
    }
    else if (flag == "--priority") {
      a.priority = next();
      if (a.priority != "normal" && a.priority != "high")
        usage("--priority wants normal|high");
    }
    else if (flag == "--deadline-ms") a.deadline_ms = parse_count(flag, next());
    else if (flag == "--series") a.series = next();
    else if (flag == "--keyframe-interval")
      a.keyframe_interval = parse_count(flag, next());
    else if (flag == "--max-frame-mb") a.max_frame_mb = parse_count(flag, next());
    else if (flag == "--max-inflight-mb")
      a.max_inflight_mb = parse_count(flag, next());
    else usage(("unknown flag " + flag).c_str());
  }
  return a;
}

/// Apply --simd before any work runs. "auto" (and no flag at all) keeps
/// the env/CPUID selection; a concrete backend is pinned via
/// force_backend. An unsupported backend is a hard usage error, not the
/// dispatcher's loud-scalar fallback: the user asked for a specific ISA
/// by name, so silently measuring scalar would be a lie.
void apply_simd(const Args& a) {
  if (a.simd.empty()) return;
  std::optional<simd::Backend> backend;
  if (!simd::parse_backend(a.simd, &backend))
    usage(("unknown --simd backend '" + a.simd +
           "' (want auto|scalar|avx2|neon)").c_str());
  if (!backend) {
    simd::reset_backend();
    return;
  }
  if (!simd::force_backend(*backend)) {
    std::string have;
    for (const simd::Backend b : simd::supported_backends()) {
      if (!have.empty()) have += '|';
      have += simd::backend_name(b);
    }
    usage(("--simd " + a.simd + " is not supported on this host (have " +
           have + ")").c_str());
  }
}

/// Resolve --engine against the live codec registry (primary names and
/// aliases both work); anything else prints the registry listing and exits
/// 2. No name table exists here — the registry is the single source of
/// truth for what --engine accepts.
std::string resolve_engine(const std::string& name) {
  const auto& registry = core::CodecRegistry::instance();
  try {
    return std::string(registry.at(registry.id_of(name)).name());
  } catch (const std::out_of_range&) {
    std::cerr << "error: unknown engine '" << name
              << "'\nregistered codecs:\n"
              << registry.listing();
    std::exit(2);
  }
}

/// The engine/budget/threads/tile/predictor options every subcommand
/// shares, from the parsed flags (series frames included).
SessionOptions session_options(const Args& a) {
  SessionOptions opts;
  opts.engine = resolve_engine(a.engine);
  if (a.budget != "uniform" && a.budget != "adaptive")
    usage("unknown budget mode (want uniform|adaptive)");
  opts.budget = a.budget;
  opts.threads = a.threads;
  if (!a.tile.empty() && a.block_size)
    usage("--tile and --block-size are mutually exclusive");
  if (!a.tile.empty())
    opts.tile = TileShape(parse_tile(a.tile));
  else if (a.block_size)
    opts.tile = TileShape::slab(a.block_size);
  if (a.predictor != "lorenzo" && a.predictor != "hybrid")
    usage("unknown predictor (want lorenzo|hybrid)");
  // The predictor knob belongs to the sz engine; other engines have no
  // such stage and the flag stays inert for them (tuning is validated
  // per-engine, so it is only set where it applies).
  if (opts.engine == "sz-lorenzo")
    opts.tuning.set("sz-lorenzo", "predictor", a.predictor);
  return opts;
}

Session make_session(const Args& a) { return Session(session_options(a)); }

/// Load raw little-endian float32 values and wrap them as a named field.
data::Field load_field(const std::string& name, const std::string& path,
                       const data::Dims& dims) {
  const auto raw = read_file(path);
  if (raw.size() % sizeof(float) != 0)
    usage((path + ": size is not a multiple of 4").c_str());
  std::vector<float> values(raw.size() / sizeof(float));
  if (!raw.empty()) std::memcpy(values.data(), raw.data(), raw.size());
  if (dims.count() != values.size())
    usage((path + ": dims do not match file size").c_str());
  return {name, dims, std::move(values)};
}

int cmd_compress(const Args& a) {
  if (a.input.empty() || a.output.empty() || a.dims.empty())
    usage("compress needs -i, -o, -d");
  const data::Dims dims = parse_dims(a.dims);
  const data::Field field = load_field("input", a.input, dims);
  const Target target = parse_target(a.mode, a.value);

  const Session session = make_session(a);
  const Source source = Source::memory(field.span(), dims.extents);
  const CompressReport report =
      session.compress(source, target, Sink::file(a.output));

  std::cout << "streamed to " << a.output << ": peak reorder buffer "
            << report.peak_buffered_bytes << " bytes ("
            << report.peak_buffered_blocks << " block(s)) vs "
            << report.compressed_bytes << " container bytes\n";
  std::cout << "compressed " << report.value_count << " values -> "
            << report.compressed_bytes << " bytes  (ratio "
            << std::fixed << std::setprecision(2) << report.compression_ratio
            << ", " << report.bit_rate << " bits/value)\n";
  if (report.block_count > 0)
    std::cout << "block pipeline: " << report.block_count << " block(s), tile "
              << tile_text(report.tile) << ", codec "
              << session.options().engine << ", " << session.threads()
              << " thread(s), simd "
              << simd::backend_name(simd::active_backend()) << "\n";
  // Match on the parsed Target, not the raw -m string, so the long-form
  // spellings ("fixed-psnr", "fixed-rate") get the same summary lines.
  if (std::holds_alternative<FixedPsnr>(target))
    std::cout << "target PSNR " << a.value << " dB, eb_rel used "
              << std::scientific << report.rel_bound_used << "\n";
  if (std::holds_alternative<FixedRate>(target))
    std::cout << "target rate " << a.value << " bits/value, achieved "
              << std::fixed << std::setprecision(3) << report.bit_rate
              << " bits/value\n";
  if (a.report_psnr) {
    if (std::isnan(report.achieved_psnr_db))
      std::cout << "achieved PSNR: not tracked for this mode\n";
    else
      std::cout << "achieved PSNR " << std::fixed << std::setprecision(6)
                << report.achieved_psnr_db
                << " dB (exact, measured at compress time)\n";
  }
  return 0;
}

/// Print the exact PSNR recorded in a v2 archive's per-block SSE column.
void report_archive_psnr(const Session& session, const Source& archive) {
  const Inspection info = session.inspect(archive);
  if (!info.block_container)
    std::cout << "recorded PSNR: n/a (not an FPBK archive)\n";
  else if (std::isnan(info.achieved_psnr_db))
    std::cout << "recorded PSNR: n/a (v1 archive, no per-block SSE index)\n";
  else
    std::cout << "recorded PSNR " << std::fixed << std::setprecision(6)
              << info.achieved_psnr_db << " dB (exact, from per-block SSE)\n";
}

int cmd_decompress(const Args& a) {
  if (a.input.empty() || a.output.empty()) usage("decompress needs -i, -o");
  const Session session = make_session(a);
  const Source source = Source::file(a.input);
  if (a.block) {
    Field d;
    try {
      d = session.decompress_block(source, *a.block);
    } catch (const std::invalid_argument&) {
      usage("--block requires a block-pipeline (FPBK) stream");
    }
    write_field(a.output, d);
    std::cout << "decompressed block " << *a.block << ": " << d.size()
              << " values (" << d.dims[0] << " row(s))\n";
    return 0;
  }
  const Field d = session.decompress(source);
  write_field(a.output, d);
  std::cout << "decompressed " << d.size() << " values (rank "
            << d.dims.size() << ")\n";
  if (a.report_psnr) report_archive_psnr(session, source);
  return 0;
}

int cmd_inspect(const Args& a) {
  if (a.input.empty()) usage("inspect needs -i");
  const Session session = make_session(a);
  const auto info = session.inspect(Source::file(a.input));
  if (info.block_container) {
    std::cout << "container   : block-parallel (FPBK v"
              << static_cast<int>(info.version) << ")\n"
              << "codec       : " << info.codec << "\n"
              << "control     : " << info.target << " = " << info.target_value
              << "\n"
              << "budget      : " << info.budget << "\n"
              << "rank        : " << info.dims.size() << "\n";
    std::cout << "extents     : ";
    for (std::size_t i = 0; i < info.dims.size(); ++i)
      std::cout << (i ? " x " : "") << info.dims[i];
    std::cout << "\n"
              << "blocks      : " << info.block_count << ", tile "
              << tile_text(info.tile) << "\n"
              << "eb_abs      : " << std::scientific << info.eb_abs << "\n"
              << "value range : " << info.value_range << "\n";
    if (info.temporal) {
      std::cout << "chain       : series 0x" << std::hex << info.series_id
                << std::dec << ", timestep " << info.timestep << " ("
                << (info.delta ? "delta frame" : "keyframe") << ")\n";
      if (info.delta)
        std::cout << "reference   : 0x" << std::hex << info.ref_hash
                  << std::dec << " (reconstruction hash of timestep "
                  << (info.timestep - 1) << ")\n";
      std::cout << "temporal    : " << info.temporal_blocks << " of "
                << info.block_count << " block(s) delta-coded\n";
    }
    if (std::isnan(info.achieved_psnr_db))
      std::cout << "exact PSNR  : n/a (v1 archive)\n";
    else
      std::cout << "exact PSNR  : " << std::fixed << std::setprecision(6)
                << info.achieved_psnr_db << " dB\n";
    std::cout << "stream size : " << info.archive_bytes << " bytes\n";
    return 0;
  }
  std::cout << "container   : flat stream\n"
            << "codec       : " << info.codec << "\n";
  if (!info.target.empty())  // flat transform streams record no target
    std::cout << "control     : " << info.target << " = " << info.target_value
              << "\n";
  std::cout << "rank        : " << info.dims.size() << "\n";
  std::cout << "extents     : ";
  for (std::size_t i = 0; i < info.dims.size(); ++i)
    std::cout << (i ? " x " : "") << info.dims[i];
  std::cout << "\n"
            << "eb_abs      : " << std::scientific << info.eb_abs << "\n"
            << "value range : " << info.value_range << "\n"
            << "stream size : " << info.archive_bytes << " bytes\n";
  return 0;
}

/// Parse a batch manifest: one `<name> <raw-file> <dims>` triple per line,
/// '#' comments, blank lines ignored. Relative file paths resolve against
/// the manifest's own directory so a dataset folder is self-contained.
data::Dataset read_manifest(const std::string& manifest_path) {
  std::ifstream in(manifest_path);
  if (!in) usage(("cannot open " + manifest_path).c_str());
  const auto base = std::filesystem::path(manifest_path).parent_path();

  data::Dataset ds;
  ds.name = std::filesystem::path(manifest_path).stem().string();
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (const auto hash = line.find('#'); hash != std::string::npos)
      line.erase(hash);
    std::istringstream fields(line);
    std::string name, file, dims_text;
    if (!(fields >> name)) continue;  // blank / comment-only line
    if (!(fields >> file >> dims_text))
      usage(("manifest line " + std::to_string(lineno) +
             ": want '<name> <raw-f32-file> <dims>'").c_str());
    // Reject trailing tokens: '128 x128' silently parsing as dims "128"
    // would surface as a confusing size-mismatch error much later.
    if (std::string extra; fields >> extra)
      usage(("manifest line " + std::to_string(lineno) +
             ": unexpected trailing token '" + extra + "'").c_str());
    // The name becomes OUTDIR/<name>.fpbk: a path separator would let a
    // manifest write outside OUTDIR, and a duplicate would make two
    // writers fight over one archive. The duplicate check folds case —
    // 'U' and 'u' are one file on default macOS/Windows volumes.
    // ':' covers Windows drive-relative root-names ("C:payload"), which
    // would make OUTDIR/<name> discard OUTDIR entirely.
    if (name.find_first_of("/\\:") != std::string::npos)
      usage(("manifest line " + std::to_string(lineno) + ": field name '" +
             name + "' must not contain path separators or ':'").c_str());
    if (!core::archive_name_ascii(name))
      usage(("manifest line " + std::to_string(lineno) + ": field name '" +
             name + "' must be printable ASCII (filesystem case folding "
             "of non-ASCII names is volume-specific)").c_str());
    for (const auto& existing : ds.fields)
      if (core::fold_archive_name(existing.name) ==
          core::fold_archive_name(name))
        usage(("manifest line " + std::to_string(lineno) +
               ": duplicate field name '" + name +
               "' (names are compared case-insensitively: archives share "
               "one file per name on case-insensitive filesystems)").c_str());
    std::filesystem::path path(file);
    if (path.is_relative()) path = base / path;
    ds.fields.push_back(load_field(name, path.string(), parse_dims(dims_text)));
  }
  if (ds.fields.empty()) usage("manifest lists no fields");
  return ds;
}

int cmd_compress_batch(const Args& a) {
  if (a.input.empty() || a.output.empty())
    usage("compress-batch needs -i MANIFEST -o OUTDIR");
  // The batch engine is fixed-PSNR by definition; silently reinterpreting
  // an `abs`/`rel` bound as a dB target would shred every field.
  if (a.mode != "psnr")
    usage("compress-batch supports only fixed-PSNR mode (-m psnr / --psnr DB)");
  const data::Dataset ds = read_manifest(a.input);

  const Session session = make_session(a);
  BatchJob job;
  job.target = FixedPsnr{a.value};
  job.verify = !a.no_verify;
  job.stream_dir = a.output;  // created if needed
  for (const auto& f : ds.fields)
    job.fields.push_back({f.name, Source::memory(f.span(), f.dims.extents)});

  const BatchReport batch = session.compress_batch(job);

  std::size_t raw_total = 0, compressed_total = 0;
  std::cout << std::left << std::setw(14) << "field" << std::right
            << std::setw(12) << "values" << std::setw(12) << "bytes"
            << std::setw(9) << "ratio" << std::setw(12) << "PSNR(dB)"
            << std::setw(6) << "met\n";
  for (const auto& f : batch.fields) {
    raw_total += f.value_count * sizeof(float);
    compressed_total += f.compressed_bytes;
    std::cout << std::left << std::setw(14) << f.name << std::right
              << std::setw(12) << f.value_count << std::setw(12)
              << f.compressed_bytes << std::setw(9) << std::fixed
              << std::setprecision(2) << f.compression_ratio << std::setw(12)
              << f.actual_psnr_db << std::setw(5)
              << (f.met_target ? "yes" : "no") << "\n";
  }

  std::cout << "\n" << batch.fields.size() << " field(s) -> " << a.output
            << ": " << raw_total << " raw -> " << compressed_total
            << " compressed bytes (ratio " << std::fixed
            << std::setprecision(2)
            << (compressed_total
                    ? static_cast<double>(raw_total) /
                          static_cast<double>(compressed_total)
                    : 0.0)
            << ")\n"
            << "target " << a.value << " dB: AVG " << batch.mean_psnr_db
            << " dB, STDEV " << batch.stdev_psnr_db << " dB, met "
            << 100.0 * batch.met_fraction << "%\n"
            << "queue: " << session.threads()
            << " worker(s) over " << batch.fields.size()
            << " field(s); per-field archives are byte-identical at any "
               "thread count\n";
  return 0;
}

/// Parse a series manifest: one raw-f32 snapshot file per line, in time
/// order. '#' comments and blank lines are ignored; relative paths resolve
/// against the manifest's own directory, like the batch manifest.
std::vector<std::string> read_series_manifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) usage(("cannot open " + path).c_str());
  const auto base = std::filesystem::path(path).parent_path();
  std::vector<std::string> files;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (const auto hash = line.find('#'); hash != std::string::npos)
      line.erase(hash);
    std::istringstream fields(line);
    std::string file;
    if (!(fields >> file)) continue;  // blank / comment-only line
    if (std::string extra; fields >> extra)
      usage(("series manifest line " + std::to_string(lineno) +
             ": unexpected trailing token '" + extra +
             "' (want one raw-f32 file per line)").c_str());
    std::filesystem::path p(file);
    if (p.is_relative()) p = base / p;
    files.push_back(p.string());
  }
  if (files.empty()) usage("series manifest lists no snapshots");
  return files;
}

int cmd_compress_series(const Args& a) {
  if (a.input.empty() || a.output.empty() || a.dims.empty())
    usage("compress-series needs -i MANIFEST, -o OUTDIR, -d DIMS");
  const data::Dims dims = parse_dims(a.dims);
  const std::vector<std::string> files = read_series_manifest(a.input);

  TimeSeriesOptions topts;
  // A series frame and a spatial archive of the same snapshot use the
  // same engine stack.
  topts.session = session_options(a);
  topts.series = a.series.empty()
                     ? std::filesystem::path(a.input).stem().string()
                     : a.series;
  // The series name becomes OUTDIR/<series>_<t>.fpbk — same escape hatch
  // the batch manifest closes for field names.
  if (topts.series.find_first_of("/\\:") != std::string::npos)
    usage("--series name must not contain path separators or ':'");
  topts.keyframe_interval = a.keyframe_interval;
  // Frames are written to disk as they are produced; holding the whole
  // series in memory too would double the footprint for nothing.
  topts.keep_archives = false;

  const Target target = parse_target(a.mode, a.value);
  TimeSeriesSession series(target, std::move(topts));
  std::filesystem::create_directories(a.output);

  std::size_t raw_total = 0, compressed_total = 0;
  std::cout << std::left << std::setw(6) << "t" << std::setw(10) << "kind"
            << std::right << std::setw(12) << "bytes" << std::setw(9)
            << "ratio" << std::setw(16) << "delta blocks\n";
  for (std::size_t t = 0; t < files.size(); ++t) {
    const data::Field snap =
        load_field("t" + std::to_string(t), files[t], dims);
    Field frame;
    frame.dims = dims.extents;
    frame.f32 = snap.values;
    const SnapshotRecord rec = series.push(frame);

    const auto path = (std::filesystem::path(a.output) /
                       (series.options().series + "_" + std::to_string(t) +
                        ".fpbk")).string();
    write_file(path, rec.report.archive.data(), rec.report.archive.size());
    raw_total += rec.report.value_count * sizeof(float);
    compressed_total += rec.report.compressed_bytes;
    std::cout << std::left << std::setw(6) << t << std::setw(10)
              << (rec.keyframe ? "keyframe" : "delta") << std::right
              << std::setw(12) << rec.report.compressed_bytes << std::setw(9)
              << std::fixed << std::setprecision(2)
              << rec.report.compression_ratio << std::setw(8)
              << rec.temporal_blocks << "/" << rec.block_count << "\n";
  }

  std::cout << "\n" << files.size() << " frame(s) -> " << a.output << ": "
            << raw_total << " raw -> " << compressed_total
            << " compressed bytes (series ratio " << std::fixed
            << std::setprecision(2)
            << (compressed_total ? static_cast<double>(raw_total) /
                                       static_cast<double>(compressed_total)
                                 : 0.0)
            << ")\n"
            << "chain: series '" << series.options().series
            << "', keyframe every "
            << (a.keyframe_interval
                    ? std::to_string(a.keyframe_interval) + " frame(s)"
                    : std::string("first frame only"))
            << "; decode in order with a TimeSeriesDecoder\n";
  return 0;
}

data::Dataset make_named_dataset(const std::string& name) {
  data::DatasetConfig cfg;
  if (name == "nyx") return data::make_nyx(cfg);
  if (name == "atm") return data::make_atm(cfg);
  if (name == "hurricane") return data::make_hurricane(cfg);
  usage("unknown dataset (want nyx|atm|hurricane)");
}

int cmd_pack(const Args& a) {
  if (a.output.empty()) usage("pack needs -o");
  const data::Dataset ds = make_named_dataset(a.dataset);
  const Session session = make_session(a);
  std::vector<io::ArchiveEntry> entries;
  for (const auto& f : ds.fields) {
    io::ArchiveEntry e;
    e.name = f.name;
    e.bytes = session
                  .compress(Source::memory(f.span(), f.dims.extents),
                            FixedPsnr{a.value}, Sink::memory())
                  .archive;
    entries.push_back(std::move(e));
  }
  const auto archive = io::write_archive(entries);
  write_file(a.output, archive.data(), archive.size());
  std::cout << "packed " << ds.field_count() << " fields ("
            << ds.total_bytes() << " raw bytes) into " << archive.size()
            << " bytes at " << a.value << " dB\n";
  return 0;
}

int cmd_list(const Args& a) {
  if (a.input.empty()) usage("list needs -i");
  const auto archive = read_file(a.input);
  for (const auto& name : io::list_archive(archive)) std::cout << name << "\n";
  return 0;
}

int cmd_unpack(const Args& a) {
  if (a.input.empty() || a.output.empty() || a.field.empty())
    usage("unpack needs -i, -o, --field");
  const auto archive = read_file(a.input);
  const auto stream = io::archive_entry(archive, a.field);
  const Session session = make_session(a);
  const Field d =
      session.decompress(Source::memory(std::span<const std::uint8_t>(stream)));
  write_field(a.output, d);
  std::cout << "extracted " << a.field << ": " << d.size() << " values\n";
  return 0;
}

int cmd_demo(const Args& a) {
  data::Dataset ds = make_named_dataset(a.dataset);

  std::cout << "dataset " << ds.name << ": " << ds.field_count() << " fields, "
            << ds.total_bytes() / (1024.0 * 1024.0) << " MB raw\n"
            << "target PSNR " << a.value << " dB (fixed-PSNR mode)\n\n";

  const Session session = make_session(a);
  BatchJob job;
  job.target = FixedPsnr{a.value};
  for (const auto& f : ds.fields)
    job.fields.push_back({f.name, Source::memory(f.span(), f.dims.extents)});
  const BatchReport batch = session.compress_batch(job);

  std::cout << std::left << std::setw(12) << "field" << std::right
            << std::setw(12) << "actual dB" << std::setw(10) << "ratio"
            << std::setw(8) << "met\n";
  for (const auto& f : batch.fields)
    std::cout << std::left << std::setw(12) << f.name << std::right
              << std::setw(12) << std::fixed << std::setprecision(2)
              << f.actual_psnr_db << std::setw(10) << f.compression_ratio
              << std::setw(7) << (f.met_target ? "yes" : "no") << "\n";
  std::cout << "\nAVG " << batch.mean_psnr_db << " dB, STDEV "
            << batch.stdev_psnr_db << " dB, met "
            << 100.0 * batch.met_fraction << "%\n";
  return 0;
}

service::Endpoint endpoint_from(const Args& a, const char* who) {
  if (a.socket.empty() == (a.tcp_port == 0))
    usage((std::string(who) +
           " needs exactly one of --socket PATH or --tcp PORT").c_str());
  service::Endpoint ep;
  ep.socket_path = a.socket;
  ep.tcp_port = static_cast<std::uint16_t>(a.tcp_port);
  return ep;
}

#if !defined(_WIN32)

/// The running daemon, for the signal handlers: request_shutdown and
/// request_stats_dump are async-signal-safe (one pipe write each).
service::Server* g_server = nullptr;

extern "C" void fpsnrd_on_terminate(int) {
  if (g_server) g_server->request_shutdown();
}
extern "C" void fpsnrd_on_usr1(int) {
  if (g_server) g_server->request_stats_dump();
}

int cmd_serve(const Args& a) {
  service::ServerOptions opts;
  opts.endpoint = endpoint_from(a, "serve");
  opts.threads = a.threads;
  opts.max_frame_bytes = a.max_frame_mb << 20;
  opts.max_in_flight_bytes = a.max_inflight_mb << 20;
  service::Server server(std::move(opts));
  g_server = &server;
  // SIGTERM/SIGINT begin the graceful drain (stop accepting, answer every
  // admitted request, exit 0); SIGUSR1 dumps live metrics to stderr. A
  // vanished client must be an EPIPE error on its own connection, never a
  // process-wide SIGPIPE.
  std::signal(SIGTERM, fpsnrd_on_terminate);
  std::signal(SIGINT, fpsnrd_on_terminate);
  std::signal(SIGUSR1, fpsnrd_on_usr1);
  std::signal(SIGPIPE, SIG_IGN);
  if (!a.socket.empty())
    std::cerr << "fpsnrd: listening on " << a.socket << "\n";
  else
    std::cerr << "fpsnrd: listening on 127.0.0.1:" << a.tcp_port << "\n";
  const int rc = server.run();
  g_server = nullptr;
  return rc;
}

#else

int cmd_serve(const Args&) { usage("serve is not supported on this platform"); }

#endif  // !defined(_WIN32)

int cmd_client(const std::string& op, const Args& a) {
  if (a.deadline_ms > std::numeric_limits<std::uint32_t>::max())
    usage("--deadline-ms value is out of range");
  service::Client client(endpoint_from(a, "client"));
  service::RequestOptions ropts;
  ropts.priority = a.priority == "high";
  ropts.deadline_ms = static_cast<std::uint32_t>(a.deadline_ms);

  if (op == "ping") {
    client.ping();
    std::cout << "pong\n";
    return 0;
  }
  if (op == "stats") {
    std::cout << client.stats();
    return 0;
  }
  if (op == "shutdown") {
    client.shutdown_server();
    std::cout << "server draining\n";
    return 0;
  }
  if (op == "compress") {
    if (a.input.empty() || a.output.empty() || a.dims.empty())
      usage("client compress needs -i, -o, -d");
    const data::Dims dims = parse_dims(a.dims);
    const data::Field field = load_field("input", a.input, dims);
    service::CompressSpec spec;
    spec.engine = resolve_engine(a.engine);
    spec.budget = a.budget;
    spec.mode = a.mode;
    spec.value = a.value;
    if (!a.tile.empty() && a.block_size)
      usage("--tile and --block-size are mutually exclusive");
    if (!a.tile.empty())
      spec.tile = parse_tile(a.tile);
    else if (a.block_size)
      spec.tile = {a.block_size};
    spec.dims = dims.extents;
    const service::CompressResult r = client.compress(field.span(), spec, ropts);
    write_file(a.output, r.archive.data(), r.archive.size());
    std::cout << "compressed " << r.value_count << " values -> "
              << r.compressed_bytes << " bytes over the socket ("
              << std::fixed << std::setprecision(3) << r.bit_rate
              << " bits/value)\n";
    if (a.report_psnr && !std::isnan(r.achieved_psnr_db))
      std::cout << "achieved PSNR " << std::fixed << std::setprecision(6)
                << r.achieved_psnr_db << " dB (exact, server-measured)\n";
    return 0;
  }
  if (op == "decompress") {
    if (a.input.empty() || a.output.empty())
      usage("client decompress needs -i, -o");
    const auto archive = read_file(a.input);
    const Field d = client.decompress(
        std::span<const std::uint8_t>(archive), ropts);
    write_field(a.output, d);
    std::cout << "decompressed " << d.size() << " values (rank "
              << d.dims.size() << ", remote)\n";
    return 0;
  }
  if (op == "inspect") {
    if (a.input.empty()) usage("client inspect needs -i");
    const auto archive = read_file(a.input);
    std::cout << client.inspect(std::span<const std::uint8_t>(archive), ropts);
    return 0;
  }
  usage(("unknown client op '" + op +
         "' (want ping|compress|decompress|inspect|stats|shutdown)").c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "client") {
      if (argc < 3) usage("client needs an operation");
      const std::string op = argv[2];
      const Args a = parse_args(argc, argv, 3);
      apply_simd(a);
      return cmd_client(op, a);
    }
    const Args a = parse_args(argc, argv, 2);
    apply_simd(a);
    if (cmd == "compress") return cmd_compress(a);
    if (cmd == "compress-batch") return cmd_compress_batch(a);
    if (cmd == "compress-series") return cmd_compress_series(a);
    if (cmd == "decompress") return cmd_decompress(a);
    if (cmd == "inspect") return cmd_inspect(a);
    if (cmd == "demo") return cmd_demo(a);
    if (cmd == "pack") return cmd_pack(a);
    if (cmd == "list") return cmd_list(a);
    if (cmd == "unpack") return cmd_unpack(a);
    if (cmd == "serve") return cmd_serve(a);
    usage(("unknown command " + cmd).c_str());
  } catch (const service::ServiceError& e) {
    std::cerr << "service error (" << service::error_code_name(e.code())
              << "): " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

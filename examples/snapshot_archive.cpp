// Snapshot-series archival: everything in one pipeline, via the facade.
//
// A small campaign writes a time series of snapshots. Each snapshot is
// compressed to a fixed PSNR through one reusable Session (block-parallel
// over worker threads), and all snapshots land in one self-describing
// archive — the workflow a simulation's I/O layer would actually run.
// Reading back, we verify every snapshot meets the quality target and show
// per-snapshot whiteness of the compression error (errors stay
// uncorrelated, so downstream spectra remain trustworthy).
//
//   $ ./snapshot_archive [target_db]
#include <cstdio>
#include <cstdlib>

#include "fpsnr/fpsnr.h"

#include "data/timeseries.h"
#include "io/archive.h"
#include "metrics/autocorrelation.h"
#include "metrics/metrics.h"

int main(int argc, char** argv) {
  using namespace fpsnr;

  const double target_db = argc > 1 ? std::atof(argv[1]) : 70.0;

  data::TimeSeriesConfig cfg;
  cfg.dims = data::Dims{128, 128};
  cfg.snapshots = 12;
  const auto series = data::make_advected_series(cfg);
  std::printf("campaign: %zu snapshots of %zux%zu, target %.0f dB\n\n",
              series.size(), cfg.dims[0], cfg.dims[1], target_db);

  const Session session({.threads = 4});

  // Write phase: fixed-PSNR, one archive entry per snapshot.
  std::vector<io::ArchiveEntry> entries;
  std::size_t raw_bytes = 0;
  for (const auto& snap : series) {
    io::ArchiveEntry e;
    e.name = snap.name;
    e.bytes = session
                  .compress(Source::memory(snap.span(), snap.dims.extents),
                            FixedPsnr{target_db}, Sink::memory())
                  .archive;
    raw_bytes += snap.bytes();
    entries.push_back(std::move(e));
  }
  const auto archive = io::write_archive(entries);
  std::printf("archive: %zu -> %zu bytes (%.1fx)\n\n", raw_bytes,
              archive.size(),
              static_cast<double>(raw_bytes) / archive.size());

  // Read phase: verify quality and error whiteness per snapshot.
  std::printf("%-6s %10s %8s %12s\n", "snap", "PSNR(dB)", "met", "err-acf max");
  std::size_t met = 0;
  for (const auto& snap : series) {
    const auto stream = io::archive_entry(archive, snap.name);
    const auto out = session.decompress(
        Source::memory(std::span<const std::uint8_t>(stream)));
    const auto rep = metrics::compare<float>(snap.span(), out.f32);
    const double white =
        metrics::error_whiteness<float>(snap.span(), out.f32, 8);
    if (rep.psnr_db >= target_db) ++met;
    std::printf("%-6s %10.2f %8s %12.3f\n", snap.name.c_str(), rep.psnr_db,
                rep.psnr_db >= target_db ? "yes" : "no", white);
  }
  std::printf("\n%zu/%zu snapshots met the %.0f dB target; error "
              "autocorrelation stays low (quantization noise is nearly "
              "white).\n", met, series.size(), target_db);
  return 0;
}

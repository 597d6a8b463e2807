// The three benchmark workloads. Each run_* generates its inputs from the
// seed, saves the set-up input, runs a warm untimed pass, then either the
// timed closed loop (end-to-end metrics) or the traced pass (per-layer
// metrics), checking every decoded output on the way. Each setup_* times
// one set-up — construction plus the first, cold operation on `field` —
// and returns it in seconds; it runs in a fresh process.
#pragma once

#include "common.h"

namespace perfbench {

/// The 13 Hurricane stand-in fields (50x200x200) in process through
/// Session: streaming sink, mmap source, FixedPsnr{60}.
void run_hurricane_3d(const Options& options, Report& report);
double setup_hurricane_3d(const Options& options, Report& report,
                          const fpsnr::data::Field& field);

/// The 79 ATM stand-in fields (180x360) through an in-process fpsnrd
/// server by two blocking clients, FixedPsnr{80}.
void run_atm_2d_fpsnrd(const Options& options, Report& report);
double setup_atm_2d_fpsnrd(const Options& options, Report& report,
                           const fpsnr::data::Field& field);

/// A rank-3 advected snapshot chain through TimeSeriesSession and
/// TimeSeriesDecoder, FixedPsnr{70}.
void run_series_3d(const Options& options, Report& report);
double setup_series_3d(const Options& options, Report& report,
                       const fpsnr::data::Field& field);

}  // namespace perfbench

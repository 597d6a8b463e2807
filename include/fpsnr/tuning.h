// fpsnr public API — per-engine codec tuning.
//
// Engine-specific knobs (prediction scheme, transform depth, DCT block
// edge, quantizer resolution, lossless backend) never appear as Session
// fields: they live in a CodecTuning store keyed by engine name. Each
// engine's codec declares the keys it reads and validates their values,
// so adding a codec never widens the facade — it registers its name and
// its keys in the codec registry, and every caller keeps compiling.
//
// Self-contained: installed under <prefix>/include/fpsnr and includes only
// the C++ standard library.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace fpsnr {

namespace detail {
struct Access;
}

/// One knob of one engine: its key, a one-line doc, and the default the
/// session applies when the knob is not set.
struct TuningKey {
  std::string key;
  std::string doc;
  std::string default_value;
};

/// The knobs `engine` reads (registry name or alias), and only those: an
/// engine without a quantizer or lossless stage (zfpr, store) lists no
/// "quantization-bins" or "lossless". Throws std::out_of_range for an
/// unknown engine, listing the registry.
std::vector<TuningKey> tuning_keys(std::string_view engine);

/// A set of per-engine knob overrides. Entries are validated lazily — at
/// set() time against nothing (so a tuning block can be built before the
/// engine is chosen), and strictly when a Session is constructed, where an
/// unknown engine throws std::out_of_range, and an unknown key or a bad
/// value throws std::invalid_argument (naming the valid keys, or the
/// values the key takes). Entries for engines other than the session's are
/// validated too but not applied.
class CodecTuning {
 public:
  CodecTuning& set(std::string_view engine, std::string_view key,
                   std::string_view value) {
    values_[std::string(engine)][std::string(key)] = std::string(value);
    return *this;
  }

  CodecTuning& set(std::string_view engine, std::string_view key,
                   double value) {
    return set(engine, key, std::to_string(value));
  }

  /// The override stored for (engine, key), or empty when unset.
  std::string get(std::string_view engine, std::string_view key) const {
    const auto e = values_.find(engine);
    if (e == values_.end()) return {};
    const auto k = e->second.find(key);
    return k == e->second.end() ? std::string{} : k->second;
  }

  bool empty() const { return values_.empty(); }

 private:
  friend struct detail::Access;

  std::map<std::string, std::map<std::string, std::string, std::less<>>,
           std::less<>>
      values_;
};

}  // namespace fpsnr

#include "huffman/huffman.h"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <queue>
#include <stdexcept>

#include "simd/dispatch.h"

namespace fpsnr::huffman {

namespace {

/// Reverse the low `nbits` bits of `code` (for LSB-first emission).
std::uint32_t reverse_bits(std::uint32_t code, unsigned nbits) {
  std::uint32_t out = 0;
  for (unsigned i = 0; i < nbits; ++i) {
    out = (out << 1) | (code & 1u);
    code >>= 1;
  }
  return out;
}

}  // namespace

std::vector<std::uint8_t> build_code_lengths(std::span<const std::uint64_t> freq,
                                             unsigned max_length) {
  if (max_length == 0 || max_length > kMaxCodeLength)
    throw std::invalid_argument("build_code_lengths: bad max_length");
  const std::size_t n = freq.size();
  std::vector<std::uint8_t> lengths(n, 0);

  std::vector<std::uint32_t> used;
  used.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i)
    if (freq[i] > 0) used.push_back(i);

  if (used.empty()) return lengths;
  if (used.size() == 1) {
    // A single symbol still needs one bit so the decoder can count symbols.
    lengths[used[0]] = 1;
    return lengths;
  }
  if (used.size() > (std::uint64_t{1} << max_length))
    throw std::invalid_argument("build_code_lengths: alphabet too large for max_length");

  // Standard heap-based Huffman tree. Node ids: [0, used.size()) are leaves,
  // internal nodes follow. parent[] lets us recover depths without pointers.
  struct HeapItem {
    std::uint64_t weight;
    std::uint32_t node;
    bool operator>(const HeapItem& o) const {
      // Tie-break on node id for determinism across platforms.
      return weight != o.weight ? weight > o.weight : node > o.node;
    }
  };
  const std::size_t total_nodes = 2 * used.size() - 1;
  std::vector<std::uint32_t> parent(total_nodes, 0);
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
  for (std::uint32_t i = 0; i < used.size(); ++i)
    heap.push({freq[used[i]], i});
  std::uint32_t next_node = static_cast<std::uint32_t>(used.size());
  while (heap.size() > 1) {
    HeapItem a = heap.top(); heap.pop();
    HeapItem b = heap.top(); heap.pop();
    parent[a.node] = next_node;
    parent[b.node] = next_node;
    heap.push({a.weight + b.weight, next_node});
    ++next_node;
  }
  const std::uint32_t root = next_node - 1;

  // Depth of each leaf = its code length.
  std::vector<std::uint8_t> depth(total_nodes, 0);
  for (std::uint32_t node = root; node-- > 0;) {
    // Parents have larger ids than children, so a reverse sweep sees each
    // parent's depth before its children.
    depth[node] = static_cast<std::uint8_t>(depth[parent[node]] + 1);
  }
  unsigned max_seen = 0;
  std::vector<unsigned> leaf_len(used.size());
  for (std::size_t i = 0; i < used.size(); ++i) {
    leaf_len[i] = (used.size() == 1) ? 1 : depth[i];
    max_seen = std::max(max_seen, leaf_len[i]);
  }

  if (max_seen > max_length) {
    // Length-limit repair: clamp overlong codes, then restore the Kraft
    // inequality exactly by demoting leaves one level at a time. All Kraft
    // accounting is done in integer units of 2^-max_length, so the repair
    // terminates with sum(2^-len) <= 1 guaranteed (the canonical code
    // construction tolerates strict inequality — some codes go unused).
    std::vector<std::uint64_t> bl_count(max_length + 2, 0);
    for (unsigned& L : leaf_len) {
      if (L > max_length) L = max_length;
      ++bl_count[L];
    }
    const std::uint64_t budget = std::uint64_t{1} << max_length;
    std::uint64_t kraft = 0;
    for (unsigned L = 1; L <= max_length; ++L)
      kraft += bl_count[L] << (max_length - L);
    while (kraft > budget) {
      // Demote one leaf from the deepest level that still has headroom.
      unsigned L = max_length - 1;
      while (L > 0 && bl_count[L] == 0) --L;
      if (L == 0) throw std::logic_error("huffman: length repair failed");
      --bl_count[L];
      ++bl_count[L + 1];
      kraft -= std::uint64_t{1} << (max_length - L - 1);
    }
    // Reassign lengths: most frequent symbols get the shortest codes.
    std::vector<std::uint32_t> order(used.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
      const std::uint64_t fa = freq[used[a]], fb = freq[used[b]];
      return fa != fb ? fa > fb : used[a] < used[b];
    });
    std::size_t idx = 0;
    for (unsigned L = 1; L <= max_length; ++L)
      for (std::uint64_t k = 0; k < bl_count[L]; ++k) leaf_len[order[idx++]] = L;
  }

  for (std::size_t i = 0; i < used.size(); ++i)
    lengths[used[i]] = static_cast<std::uint8_t>(leaf_len[i]);
  return lengths;
}

std::vector<std::uint32_t> canonical_codes(std::span<const std::uint8_t> lengths) {
  unsigned max_len = 0;
  for (std::uint8_t L : lengths) max_len = std::max<unsigned>(max_len, L);
  std::vector<std::uint32_t> bl_count(max_len + 1, 0);
  for (std::uint8_t L : lengths)
    if (L > 0) ++bl_count[L];
  std::vector<std::uint32_t> next_code(max_len + 2, 0);
  std::uint32_t code = 0;
  for (unsigned L = 1; L <= max_len; ++L) {
    code = (code + bl_count[L - 1]) << 1;
    next_code[L] = code;
  }
  std::vector<std::uint32_t> codes(lengths.size(), 0);
  for (std::size_t i = 0; i < lengths.size(); ++i)
    if (lengths[i] > 0) codes[i] = next_code[lengths[i]]++;
  return codes;
}

Encoder::Encoder(std::size_t alphabet, std::uint32_t base,
                 std::vector<std::uint8_t> lengths,
                 std::vector<std::uint32_t> codes)
    : alphabet_(alphabet),
      base_(base),
      lengths_(std::move(lengths)),
      codes_(std::move(codes)) {
  entries_.resize(lengths_.size(), 0);
  for (std::size_t r = 0; r < lengths_.size(); ++r) {
    const unsigned len = lengths_[r];
    if (len == 0) continue;
    entries_[r] = static_cast<std::uint64_t>(reverse_bits(codes_[r], len)) |
                  (static_cast<std::uint64_t>(len) << 32);
  }
}

Encoder Encoder::from_frequencies(std::span<const std::uint64_t> freq,
                                  unsigned max_length) {
  auto lengths = build_code_lengths(freq, max_length);
  auto codes = canonical_codes(lengths);
  return Encoder(freq.size(), 0, std::move(lengths), std::move(codes));
}

Encoder Encoder::from_symbols(std::span<const std::uint32_t> symbols,
                              std::uint32_t alphabet_size, unsigned max_length) {
  // Only the used range [lo, hi] can have a code. build_code_lengths
  // orders and breaks ties by position among the used symbols, which the
  // shift by lo keeps, so the lengths (and canonical codes) equal a build
  // over the whole alphabet.
  std::uint32_t lo = 0;
  std::vector<std::uint64_t> freq;
  if (!symbols.empty()) {
    lo = symbols[0];
    std::uint32_t hi = symbols[0];
    for (const std::uint32_t s : symbols) {
      lo = std::min(lo, s);
      hi = std::max(hi, s);
    }
    if (hi >= alphabet_size)
      throw std::invalid_argument("Encoder::from_symbols: symbol out of alphabet");
    freq.assign(std::size_t{hi} - lo + 1, 0);
    for (const std::uint32_t s : symbols) ++freq[s - lo];
  }
  auto lengths = build_code_lengths(freq, max_length);
  auto codes = canonical_codes(lengths);
  return Encoder(alphabet_size, lo, std::move(lengths), std::move(codes));
}

unsigned Encoder::code_length(std::uint32_t symbol) const {
  if (symbol >= alphabet_)
    throw std::out_of_range("Encoder::code_length: symbol out of alphabet");
  const std::uint32_t r = symbol - base_;  // wraps below the range
  return r < lengths_.size() ? lengths_[r] : 0u;
}

std::vector<std::uint8_t> Encoder::lengths() const {
  std::vector<std::uint8_t> dense(alphabet_, 0);
  std::copy(lengths_.begin(), lengths_.end(), dense.begin() + base_);
  return dense;
}

void Encoder::encode_symbol(std::uint32_t symbol, io::BitWriter& out) const {
  const std::uint32_t r = symbol - base_;
  if (r >= lengths_.size() || lengths_[r] == 0)
    throw std::invalid_argument("Encoder: symbol has no code");
  const unsigned len = lengths_[r];
  out.write_bits(reverse_bits(codes_[r], len), len);
}

void Encoder::encode(std::span<const std::uint32_t> symbols, io::BitWriter& out) const {
  // Bulk path: pack whole 64-bit words from the precomputed (reversed
  // code | length) table and hand them to the BitWriter wholesale. The
  // emitted bit sequence is identical to per-symbol encode_symbol calls at
  // any starting bit offset; only the call overhead changes.
  const simd::KernelTable& kt = simd::kernels();
  constexpr std::size_t kChunk = 4096;
  std::vector<std::uint64_t> words(
      (kChunk * kMaxCodeLength + 63) / 64 + 1);
  std::uint64_t carry = 0;
  unsigned carry_bits = 0;
  std::size_t i = 0;
  while (i < symbols.size()) {
    const std::size_t n = std::min(kChunk, symbols.size() - i);
    std::size_t bad = simd::kNoBadSymbol;
    const std::size_t nw =
        kt.huffman_pack(symbols.data() + i, n, entries_.data(), base_,
                        entries_.size(), words.data(), &carry, &carry_bits,
                        &bad);
    for (std::size_t w = 0; w < nw; ++w) out.write_bits(words[w], 64);
    if (bad != simd::kNoBadSymbol)
      throw std::invalid_argument("Encoder: symbol has no code");
    i += n;
  }
  if (carry_bits > 0) out.write_bits(carry, carry_bits);
}

std::uint64_t Encoder::encoded_bits(std::span<const std::uint32_t> symbols) const {
  std::uint64_t bits = 0;
  for (std::uint32_t s : symbols) {
    const std::uint32_t r = s - base_;
    if (r >= lengths_.size() || lengths_[r] == 0)
      throw std::invalid_argument("Encoder: symbol has no code");
    bits += lengths_[r];
  }
  return bits;
}

// The table is (count, length) run-length pairs after the alphabet size,
// over the dense alphabet: the zeros below base_ and above the coded range
// are runs of their own, exactly as a dense table would write them.
void Encoder::write_table(io::ByteWriter& out) const {
  out.put_varint(alphabet_);
  std::size_t zeros = base_;
  std::size_t i = 0;
  while (i < lengths_.size()) {
    std::size_t j = i;
    while (j < lengths_.size() && lengths_[j] == lengths_[i]) ++j;
    if (lengths_[i] == 0) {
      zeros += j - i;
    } else {
      if (zeros > 0) {
        out.put_varint(zeros);
        out.put<std::uint8_t>(0);
        zeros = 0;
      }
      out.put_varint(j - i);
      out.put<std::uint8_t>(lengths_[i]);
    }
    i = j;
  }
  zeros += alphabet_ - base_ - lengths_.size();
  if (zeros > 0) {
    out.put_varint(zeros);
    out.put<std::uint8_t>(0);
  }
}

void encode_stream(std::span<const std::uint32_t> symbols,
                   std::uint32_t alphabet_size, io::ByteWriter& out) {
  const Encoder encoder = Encoder::from_symbols(symbols, alphabet_size);
  encoder.write_table(out);
  io::BitWriter bits;
  encoder.encode(symbols, bits);
  out.put_blob(bits.take());
}

Decoder Decoder::read_table(io::ByteReader& in) {
  // Each nonzero run becomes one Run and a zero run only advances the
  // symbol index, so nothing here grows with the counts the table claims.
  const std::uint64_t n = in.get_varint();
  if (n >= (std::uint64_t{1} << 32))
    throw io::StreamError("huffman: alphabet of 2^32 or more symbols");
  std::vector<Run> runs;
  std::uint64_t next = 0;
  while (next < n) {
    const std::uint64_t run = in.get_varint();
    const auto L = in.get<std::uint8_t>();
    if (L > kMaxCodeLength)
      throw io::StreamError("huffman: serialized code length out of range");
    if (run > n - next)
      throw io::StreamError("huffman: RLE run overflows declared alphabet");
    if (L > 0 && run > 0)
      runs.push_back({static_cast<std::uint32_t>(next),
                      static_cast<std::uint32_t>(run), L});
    next += run;
  }
  return Decoder(runs);
}

Decoder Decoder::from_lengths(std::span<const std::uint8_t> lengths) {
  std::vector<Run> runs;
  for (std::uint32_t s = 0; s < lengths.size(); ++s) {
    if (lengths[s] == 0) continue;
    if (!runs.empty() && runs.back().length == lengths[s] &&
        runs.back().symbol + runs.back().count == s)
      ++runs.back().count;
    else
      runs.push_back({s, 1, lengths[s]});
  }
  return Decoder(runs);
}

Decoder::Decoder(std::span<const Run> runs) {
  for (const Run& r : runs)
    max_length_ = std::max<unsigned>(max_length_, r.length);
  if (max_length_ > kMaxCodeLength)
    throw io::StreamError("huffman: code length exceeds limit");

  // Validate the Kraft inequality run by run, in units of 2^-kMaxCodeLength,
  // before anything is sized per symbol: at most 2^L codes of length L fit.
  // It also keeps corrupted tables from sending decode_symbol into an
  // infinite loop.
  constexpr std::uint64_t kKraftOne = std::uint64_t{1} << kMaxCodeLength;
  std::uint64_t kraft = 0;
  count_.assign(max_length_ + 1, 0);
  std::vector<std::uint32_t> run_count(max_length_ + 1, 0);
  for (const Run& r : runs) {
    kraft += std::uint64_t{r.count} << (kMaxCodeLength - r.length);
    if (kraft > kKraftOne)
      throw io::StreamError("huffman: code lengths violate Kraft inequality");
    count_[r.length] += r.count;
    ++run_count[r.length];
  }

  // Same canonical recurrence as canonical_codes(): count_[0] == 0, so the
  // first length-1 code is 0.
  first_code_.assign(max_length_ + 1, 0);
  offset_.assign(max_length_ + 2, 0);
  std::uint32_t code = 0, listed = 0, long_runs = 0;
  for (unsigned L = 1; L <= max_length_ + 1; ++L) {
    offset_[L] = L <= kListedLength ? listed : long_runs;
    if (L > max_length_) break;
    code = (code + count_[L - 1]) << 1;
    first_code_[L] = code;
    if (L <= kListedLength)
      listed += count_[L];
    else
      long_runs += run_count[L];
  }
  sorted_symbols_.resize(listed);
  runs_.resize(long_runs);

  // Place the symbols, and build the one-peek fast table. Symbols of one
  // length take consecutive canonical codes in symbol order, so the k-th
  // symbol of length L has code first_code_[L] + k. Codes are emitted
  // bit-reversed into the LSB-first stream, so a W-bit peek holds
  // reverse(code, L) in its low L bits; every high-bit filler pattern maps
  // to the same symbol. Ten bits keep the table (12 KB) in L1 and let one
  // 56-bit window serve five lookups.
  constexpr unsigned kMaxTableWidth = 10;
  table_width_ = std::min(max_length_, kMaxTableWidth);
  if (max_length_ > 0)
    fast_table_.assign(std::size_t{1} << table_width_, FastEntry{});
  std::vector<std::uint32_t> rank(max_length_ + 1, 0);
  std::vector<std::uint32_t> placed_runs(max_length_ + 1, 0);
  for (const Run& r : runs) {
    const unsigned L = r.length;
    if (L > kListedLength)
      runs_[offset_[L] + placed_runs[L]++] = {rank[L], r.symbol};
    for (std::uint32_t k = 0; L <= kListedLength && k < r.count; ++k) {
      sorted_symbols_[offset_[L] + rank[L] + k] = r.symbol + k;
      if (L > table_width_) continue;
      const std::uint32_t rc = reverse_bits(first_code_[L] + rank[L] + k, L);
      const std::size_t fillers = std::size_t{1} << (table_width_ - L);
      for (std::size_t f = 0; f < fillers; ++f)
        fast_table_[rc | (f << L)] = {r.symbol + k, 0,
                                      static_cast<std::uint8_t>(L),
                                      static_cast<std::uint8_t>(L), 1};
    }
    rank[L] += r.count;
  }
  // Pair each entry with the code its filler bits hold, if they hold a
  // whole one: that entry's own peek pattern, zero-filled above.
  for (std::size_t w = 0; w < fast_table_.size(); ++w) {
    FastEntry& e = fast_table_[w];
    if (e.length == 0) continue;
    const FastEntry& next = fast_table_[w >> e.length];
    if (next.length != 0 && e.length + next.length <= table_width_) {
      e.second = next.symbol;
      e.bits = static_cast<std::uint8_t>(e.length + next.length);
      e.step = 2;
    }
  }
}

std::uint32_t Decoder::decode_symbol_slow(io::BitReader& in) const {
  // Walk the canonical code bit by bit through one peek: the stream holds
  // codes bit-reversed, so the next code bit is the next window bit.
  const std::uint64_t window = in.peek_bits(max_length_);
  std::uint32_t code = 0;
  for (unsigned L = 1; L <= max_length_; ++L) {
    code = (code << 1) | static_cast<std::uint32_t>((window >> (L - 1)) & 1u);
    if (count_[L] != 0 && code >= first_code_[L] &&
        code - first_code_[L] < count_[L]) {
      in.skip_bits(L);  // throws when the code runs past the stream end
      const std::uint32_t rank = code - first_code_[L];
      if (L <= kListedLength) return sorted_symbols_[offset_[L] + rank];
      // The last run of length L whose first rank is <= this code's rank.
      const auto run = std::prev(std::upper_bound(
          runs_.begin() + offset_[L], runs_.begin() + offset_[L + 1], rank,
          [](std::uint32_t r, const RankedRun& x) { return r < x.rank; }));
      return run->symbol + (rank - run->rank);
    }
  }
  // No code matched: the stream ran out first (skip_bits throws) or holds
  // a pattern the table leaves unassigned.
  in.skip_bits(max_length_);
  throw io::StreamError("huffman: invalid code in stream");
}

std::vector<std::uint32_t> Decoder::decode(io::BitReader& in, std::size_t count) const {
  // Every code is at least one bit (a lone symbol still gets one), so a
  // count beyond the bits left is a lie; reject it before allocating.
  if (count > in.bits_remaining())
    throw io::StreamError("huffman: symbol count exceeds the bits left");
  std::vector<std::uint32_t> out(count);
  std::size_t i = 0;
  // Bulk loop: while a whole 8-byte window lies in the stream, each load
  // makes kWindowBits / table_width_ table lookups, which fit in the bits
  // it holds, so they need no per-symbol bounds check. A lookup resolves
  // one code, or two when both fit the table width. A code the table does
  // not resolve goes to the canonical walk; the last 8 bytes go through
  // the checked decode_symbol. `dst[i + 1]` is written on every lookup
  // (and overwritten by the next one when unused), so the loop stops with
  // two symbols of room per lookup left.
  if (table_width_ != 0) {
    const unsigned per_load = io::BitReader::kWindowBits / table_width_;
    const std::uint64_t mask = (std::uint64_t{1} << table_width_) - 1;
    const FastEntry* table = fast_table_.data();
    std::uint32_t* const dst = out.data();
    while (count - i >= 2 * per_load && in.window_is_full()) {
      const std::uint64_t window = in.window();
      unsigned used = 0, k = 0;
      for (; k < per_load; ++k) {
        const FastEntry e = table[(window >> used) & mask];
        if (e.length == 0) break;
        dst[i] = e.symbol;
        dst[i + 1] = e.second;
        i += e.step;
        used += e.bits;
      }
      in.skip_bits(used);
      if (k < per_load) dst[i++] = decode_symbol_slow(in);
    }
  }
  for (; i < count; ++i) out[i] = decode_symbol(in);
  return out;
}

}  // namespace fpsnr::huffman

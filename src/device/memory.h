// Byte-for-byte memory regions with volatility semantics.
//
// The MSP430FR5994 pairs 8 KB of volatile SRAM (fast, cheap accesses,
// contents lost at brown-out) with 256 KB of non-volatile FRAM (slower,
// pricier writes, survives power loss). Getting the *loss* right is the
// whole game for intermittent computing, so regions store real words: a
// reboot scrambles SRAM (deterministically, from a seed, so tests can
// prove that a runtime never silently relies on dead state) and leaves
// FRAM intact.
//
// Word addressing: all ehdnn device data is 16-bit, so addresses index
// q15 words. Cost accounting happens in Device, not here; peek/poke are
// the cost-free accessors used for programming-time setup and test
// assertions only.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "fixed/q15.h"
#include "util/check.h"
#include "util/rng.h"

namespace ehdnn::dev {

using Addr = std::size_t;  // word address within a region

enum class MemKind { kSram, kFram };

class MemoryRegion {
 public:
  MemoryRegion(MemKind kind, std::size_t words)
      : kind_(kind),
        store_(static_cast<fx::q15_t*>(std::calloc(std::max<std::size_t>(words, 1),
                                                   sizeof(fx::q15_t)))),
        words_(store_.get(), words) {
    if (store_ == nullptr) throw std::bad_alloc();
  }

  MemKind kind() const { return kind_; }
  bool is_volatile() const { return kind_ == MemKind::kSram; }
  std::size_t size_words() const { return words_.size(); }
  std::size_t size_bytes() const { return words_.size() * sizeof(fx::q15_t); }

  fx::q15_t peek(Addr a) const {
    check(a < words_.size(), "MemoryRegion: address out of range");
    return words_[a];
  }
  void poke(Addr a, fx::q15_t v) {
    check(a < words_.size(), "MemoryRegion: address out of range");
    words_[a] = v;
  }

  // Bounds-checked block views: one range check for a whole [a, a+n)
  // window, then raw storage access. These back the device's bulk
  // fast paths; like peek/poke they carry no cost accounting.
  std::span<const fx::q15_t> view(Addr a, std::size_t n) const {
    check(a <= words_.size() && n <= words_.size() - a,
          "MemoryRegion: block out of range");
    return {words_.data() + a, n};
  }
  std::span<fx::q15_t> mut_view(Addr a, std::size_t n) {
    check(a <= words_.size() && n <= words_.size() - a,
          "MemoryRegion: block out of range");
    return {words_.data() + a, n};
  }

  // Volatile loss at reboot: scramble contents deterministically. A
  // runtime that reads un-reinitialized SRAM after reboot will compute
  // garbage and fail the bit-exactness tests — by design.
  void scramble(Rng& rng) {
    for (auto& w : words_) w = static_cast<fx::q15_t>(rng.next_u64());
  }

  // Image cloning: replace this region's contents AND allocator state
  // with a copy of `other`'s. Cost-free like peek/poke — this is a
  // programming-time operation (sim::provision stamps each device's
  // FRAM from a shared compiled image instead of re-running ace::compile
  // per device; the poke sequence compile would perform is cost-free
  // too, so the clone is observationally identical).
  void clone_from(const MemoryRegion& other) {
    check(kind_ == other.kind_ && words_.size() == other.words_.size(),
          "MemoryRegion: clone_from geometry mismatch");
    std::copy(other.words_.begin(), other.words_.end(), words_.begin());
    brk_ = other.brk_;
    segments_ = other.segments_;
  }

  // --- bump allocator (named segments, word granular) -------------------
  struct Segment {
    std::string name;
    Addr base = 0;
    std::size_t words = 0;
  };

  Addr alloc(std::size_t words, const std::string& name) {
    check(brk_ + words <= words_.size(),
          "MemoryRegion: out of memory allocating '" + name + "' (" +
              std::to_string(words) + " words, brk=" + std::to_string(brk_) + "/" +
              std::to_string(words_.size()) + ")");
    segments_.push_back({name, brk_, words});
    const Addr base = brk_;
    brk_ += words;
    return base;
  }

  std::size_t allocated_words() const { return brk_; }
  std::size_t free_words() const { return words_.size() - brk_; }
  const std::vector<Segment>& segments() const { return segments_; }

  void reset_allocator() {
    brk_ = 0;
    segments_.clear();
  }

 private:
  struct Free {
    void operator()(fx::q15_t* p) const { std::free(p); }
  };

  MemKind kind_;
  // Zero-filled by calloc, which maps a large region as fresh zero pages
  // without writing them, so the host backs only the words a device
  // touches: a dense deployment reserves 8 M FRAM words for a model that
  // compiles into a small fraction of them.
  std::unique_ptr<fx::q15_t[], Free> store_;
  std::span<fx::q15_t> words_;  // views store_
  Addr brk_ = 0;
  std::vector<Segment> segments_;
};

}  // namespace ehdnn::dev

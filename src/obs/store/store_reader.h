// Read side of the trace store. open() keeps a file descriptor and
// checks the file before anything is trusted: the footer magic, the file
// digest over every byte before the digest field (one streaming pass
// through a fixed window, so a truncated or corrupted file is rejected up
// front, never half-decoded), then the header and the block index, which
// are the only parts held in memory. Blocks are read on demand with
// pread into a per-reader window: a sequential scan refills it a window
// at a time from the block it needs onward, and a point lookup reads just
// the byte range of its connection's blocks. Memory is the index plus the
// window (kStoreReadWindow, or the largest single block if bigger), not
// the file, so a store of any size is queried in bounded memory.
//
// The window is per reader and the const read calls refill it, so one
// reader must not be read from two threads at once; open one reader per
// thread instead.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/store/store_format.h"
#include "obs/trace_record.h"

namespace prr::obs {

// Bytes the reader's window holds by default: the digest pass's chunk
// and the reach of one sequential refill.
inline constexpr std::size_t kStoreReadWindow = 256u << 10;

class StoreReader {
 public:
  StoreReader() = default;
  ~StoreReader();
  StoreReader(StoreReader&& o) noexcept;
  StoreReader& operator=(StoreReader&& o) noexcept;
  StoreReader(const StoreReader&) = delete;
  StoreReader& operator=(const StoreReader&) = delete;

  // `verify_digest` can be disabled for very large files when the caller
  // has already checked integrity (the CLI exposes --no-verify); the
  // structural footer/header/index checks always run.
  static bool open(const std::string& path, StoreReader* out,
                   std::string* err, bool verify_digest = true);

  const StoreMeta& meta() const { return meta_; }
  // Blocks in file order: ascending conn, stream order within a conn.
  const std::vector<StoreBlockMeta>& blocks() const { return blocks_; }
  uint64_t total_records() const { return total_records_; }

  // Decodes block i, appending its records to *out. False on malformed
  // payload (possible only if the digest check was skipped) or when the
  // file has been truncated since open().
  bool read_block(std::size_t i, std::vector<TraceRecord>* out) const;

  // Every record of connection `conn` (all its blocks, stream order).
  // False on decode or read failure; an absent conn yields true and no
  // records.
  bool read_connection(uint64_t conn,
                       std::vector<TraceRecord>* out) const;

  // Copies block i's encoded bytes into *out (resized to the block's
  // length), for the merge tool. False on a read failure.
  bool read_block_bytes(std::size_t i, std::vector<uint8_t>* out) const;

  // Distinct connection ids present, ascending.
  std::vector<uint64_t> connections() const;

 private:
  // Bytes [offset, offset + need) of the file, from the window. A miss
  // refills the window from `offset` with `reach` bytes, clamped to the
  // window and to the end of the blocks; the window grows if `need`
  // exceeds it. Null on a short read (the file shrank since open()).
  const uint8_t* fetch(uint64_t offset, std::size_t need,
                       std::size_t reach) const;
  // Block i's bytes; a miss refills a whole window forward from it.
  const uint8_t* block_bytes(std::size_t i) const;
  void close_fd();

  int fd_ = -1;
  uint64_t blocks_end_ = 0;  // index offset: the blocks end here
  StoreMeta meta_;
  std::vector<StoreBlockMeta> blocks_;
  uint64_t total_records_ = 0;

  mutable std::unique_ptr<uint8_t[]> window_;
  mutable std::size_t window_cap_ = 0;
  mutable uint64_t window_offset_ = 0;  // file offset of window_[0]
  mutable std::size_t window_len_ = 0;  // valid bytes, 0 = empty
};

}  // namespace prr::obs

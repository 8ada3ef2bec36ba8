#include "obs/store/store_reader.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <utility>

#include "obs/store/store_writer.h"

namespace prr::obs {

namespace {

// First read of the header; a longer header (a long scenario string)
// is re-read with a doubled prefix until it parses or reaches the index.
constexpr std::size_t kHeaderProbe = 4096;

bool fail(std::string* err, const std::string& what) {
  if (err != nullptr) *err = what;
  return false;
}

// Reads up to `n` bytes at `offset`, retrying short reads; returns the
// count read, short only at end of file or on an error.
std::size_t pread_full(int fd, uint8_t* buf, std::size_t n,
                       uint64_t offset) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::pread(fd, buf + got, n - got,
                              static_cast<off_t>(offset + got));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    got += static_cast<std::size_t>(r);
  }
  return got;
}

}  // namespace

StoreReader::~StoreReader() { close_fd(); }

StoreReader::StoreReader(StoreReader&& o) noexcept { *this = std::move(o); }

StoreReader& StoreReader::operator=(StoreReader&& o) noexcept {
  if (this == &o) return *this;
  close_fd();
  fd_ = std::exchange(o.fd_, -1);
  blocks_end_ = std::exchange(o.blocks_end_, 0);
  meta_ = std::exchange(o.meta_, StoreMeta{});
  blocks_ = std::exchange(o.blocks_, {});
  total_records_ = std::exchange(o.total_records_, 0);
  window_ = std::move(o.window_);
  window_cap_ = std::exchange(o.window_cap_, 0);
  window_offset_ = std::exchange(o.window_offset_, 0);
  window_len_ = std::exchange(o.window_len_, 0);
  return *this;
}

void StoreReader::close_fd() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool StoreReader::open(const std::string& path, StoreReader* out,
                       std::string* err, bool verify_digest) {
  StoreReader r;
  r.fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (r.fd_ < 0) return fail(err, "cannot open " + path);
  struct stat st;
  if (::fstat(r.fd_, &st) != 0) return fail(err, "read error on " + path);
  const uint64_t size = static_cast<uint64_t>(st.st_size);

  // Structural floor: header magic + version + flags + one varint seed +
  // three empty vstrs would still exceed this, but the footer alone is
  // enough to reject obvious truncation before reading fields.
  if (size < 8 + kStoreFooterBytes) {
    return fail(err, path + ": too short to be a trace store");
  }
  uint8_t footer[kStoreFooterBytes];
  if (pread_full(r.fd_, footer, kStoreFooterBytes,
                 size - kStoreFooterBytes) != kStoreFooterBytes) {
    return fail(err, "read error on " + path);
  }
  if (std::memcmp(footer + 16, kStoreEndMagic, 8) != 0) {
    return fail(err, path + ": missing end magic (truncated store?)");
  }
  const uint64_t index_offset = get_u64le(footer);
  const uint64_t digest = get_u64le(footer + 8);
  // Everything before the digest field is under the digest. One pass
  // through the window; none of it is kept.
  if (verify_digest) {
    r.window_.reset(new uint8_t[kStoreReadWindow]);
    r.window_cap_ = kStoreReadWindow;
    StoreDigest d;
    for (uint64_t at = 0; at < size - 16;) {
      const std::size_t n = static_cast<std::size_t>(
          std::min<uint64_t>(r.window_cap_, size - 16 - at));
      if (pread_full(r.fd_, r.window_.get(), n, at) != n) {
        return fail(err, "read error on " + path);
      }
      d.feed(r.window_.get(), n);
      at += n;
    }
    if (d.value() != digest) {
      return fail(err, path + ": digest mismatch (corrupted store)");
    }
  }

  // Header: read a prefix, and a longer one if a field runs past it.
  if (index_offset < 8 || index_offset > size - kStoreFooterBytes) {
    return fail(err, path + ": index offset out of range");
  }
  std::vector<uint8_t> buf;
  uint64_t blocks_begin = 0;  // blocks start after the header
  for (std::size_t probe = std::min<uint64_t>(kHeaderProbe, index_offset);;
       probe = std::min<uint64_t>(2 * probe, index_offset)) {
    buf.resize(probe);
    if (pread_full(r.fd_, buf.data(), probe, 0) != probe) {
      return fail(err, "read error on " + path);
    }
    const uint8_t* p = buf.data();
    const uint8_t* header_end = p + probe;
    if (std::memcmp(p, kStoreMagic, 8) != 0) {
      return fail(err, path + ": bad header magic");
    }
    p += 8;
    if (header_end - p < 8) return fail(err, path + ": short header");
    r.meta_.version = get_u32le(p);
    p += 4;
    p += 4;  // header flags, reserved
    if (r.meta_.version != kStoreVersion) {
      return fail(err, path + ": unsupported store version " +
                           std::to_string(r.meta_.version));
    }
    if (get_varint(&p, header_end, &r.meta_.seed) &&
        get_vstr(&p, header_end, &r.meta_.arm) &&
        get_vstr(&p, header_end, &r.meta_.policy) &&
        get_vstr(&p, header_end, &r.meta_.scenario)) {
      blocks_begin = static_cast<uint64_t>(p - buf.data());
      break;
    }
    if (probe == index_offset) {
      return fail(err, path + ": malformed header");
    }
  }

  // Index. Offsets are implied: blocks are contiguous from blocks_begin.
  buf.resize(static_cast<std::size_t>(size - kStoreFooterBytes -
                                      index_offset));
  if (pread_full(r.fd_, buf.data(), buf.size(), index_offset) !=
      buf.size()) {
    return fail(err, "read error on " + path);
  }
  const uint8_t* ip = buf.data();
  const uint8_t* index_end = ip + buf.size();
  uint64_t block_count = 0;
  if (!get_varint(&ip, index_end, &block_count)) {
    return fail(err, path + ": malformed index");
  }
  // Each index entry is >= 4 bytes; a count implying more is garbage.
  if (block_count > static_cast<uint64_t>(index_end - ip)) {
    return fail(err, path + ": implausible block count");
  }
  r.blocks_.reserve(static_cast<std::size_t>(block_count));
  uint64_t conn = 0;
  uint64_t offset = blocks_begin;
  for (uint64_t i = 0; i < block_count; ++i) {
    uint64_t conn_delta = 0, bytes = 0, records = 0;
    if (!get_varint(&ip, index_end, &conn_delta) ||
        !get_varint(&ip, index_end, &bytes) ||
        !get_varint(&ip, index_end, &records) || ip >= index_end) {
      return fail(err, path + ": malformed index entry");
    }
    const uint8_t flags = *ip++;
    conn += conn_delta;
    StoreBlockMeta b;
    b.conn = conn;
    b.offset = offset;
    b.bytes = static_cast<uint32_t>(bytes);
    b.records = static_cast<uint32_t>(records);
    b.flags = flags;
    offset += bytes;
    if (offset > index_offset) {
      return fail(err, path + ": block extends past index");
    }
    r.blocks_.push_back(b);
    r.total_records_ += records;
  }
  if (ip != index_end) {
    return fail(err, path + ": trailing bytes after index");
  }
  if (offset != index_offset) {
    return fail(err, path + ": block payloads do not span to the index");
  }
  r.blocks_end_ = index_offset;
  *out = std::move(r);
  return true;
}

const uint8_t* StoreReader::fetch(uint64_t offset, std::size_t need,
                                  std::size_t reach) const {
  if (window_len_ != 0 && offset >= window_offset_ &&
      offset + need <= window_offset_ + window_len_) {
    return window_.get() + (offset - window_offset_);
  }
  if (fd_ < 0) return nullptr;
  // The window grows only to the largest single request.
  if (need > window_cap_ || window_ == nullptr) {
    window_cap_ = std::max(need, kStoreReadWindow);
    window_.reset(new uint8_t[window_cap_]);
  }
  const std::size_t n = static_cast<std::size_t>(std::min<uint64_t>(
      {std::max(reach, need), window_cap_, blocks_end_ - offset}));
  window_len_ = 0;
  if (pread_full(fd_, window_.get(), n, offset) != n) {
    return nullptr;  // the file shrank since open()
  }
  window_offset_ = offset;
  window_len_ = n;
  return window_.get();
}

const uint8_t* StoreReader::block_bytes(std::size_t i) const {
  const StoreBlockMeta& b = blocks_[i];
  return fetch(b.offset, b.bytes, SIZE_MAX);
}

bool StoreReader::read_block(std::size_t i,
                             std::vector<TraceRecord>* out) const {
  const StoreBlockMeta& b = blocks_[i];
  const uint8_t* data = block_bytes(i);
  return data != nullptr &&
         decode_block(data, b.bytes, b.records, b.conn, out);
}

bool StoreReader::read_block_bytes(std::size_t i,
                                   std::vector<uint8_t>* out) const {
  const uint8_t* data = block_bytes(i);
  if (data == nullptr) return false;
  out->assign(data, data + blocks_[i].bytes);
  return true;
}

bool StoreReader::read_connection(uint64_t conn,
                                  std::vector<TraceRecord>* out) const {
  // Blocks are sorted by conn; binary-search the run.
  std::size_t lo = 0, hi = blocks_.size();
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (blocks_[mid].conn < conn) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  hi = lo;
  while (hi < blocks_.size() && blocks_[hi].conn == conn) ++hi;
  if (lo == hi) return true;
  // One read of exactly the connection's bytes when they fit the window;
  // block by block (the window grown to its largest block) otherwise.
  const uint64_t begin = blocks_[lo].offset;
  const uint64_t span = blocks_[hi - 1].offset + blocks_[hi - 1].bytes - begin;
  if (span > std::max(window_cap_, kStoreReadWindow)) {
    for (std::size_t i = lo; i < hi; ++i) {
      if (!read_block(i, out)) return false;
    }
    return true;
  }
  const std::size_t n = static_cast<std::size_t>(span);
  const uint8_t* data = fetch(begin, n, n);
  if (data == nullptr) return false;
  for (std::size_t i = lo; i < hi; ++i) {
    const StoreBlockMeta& b = blocks_[i];
    if (!decode_block(data + (b.offset - begin), b.bytes, b.records, b.conn,
                      out)) {
      return false;
    }
  }
  return true;
}

std::vector<uint64_t> StoreReader::connections() const {
  std::vector<uint64_t> out;
  for (const StoreBlockMeta& b : blocks_) {
    if (out.empty() || out.back() != b.conn) out.push_back(b.conn);
  }
  return out;
}

}  // namespace prr::obs

/**
 * @file
 * Binary serialization for materialized artifacts.
 *
 * Medusa persists the offline-phase output (indirect index pointer table,
 * kernel name table, graph topology, permanent buffer contents, KV-init
 * profile) and loads it during online cold starts. The format is a simple
 * little-endian tagged binary stream with a magic header and version.
 */

#ifndef MEDUSA_COMMON_SERIALIZE_H
#define MEDUSA_COMMON_SERIALIZE_H

#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace medusa {

/**
 * Appends primitive values, strings and vectors to a growable byte
 * buffer.
 */
class BinaryWriter
{
  public:
    BinaryWriter() = default;

    void
    writeU8(u8 v)
    {
        buf_.push_back(v);
    }

    void writeU32(u32 v) { writeRaw(&v, sizeof(v)); }
    void writeU64(u64 v) { writeRaw(&v, sizeof(v)); }

    void
    writeString(const std::string &s)
    {
        writeU64(s.size());
        writeRaw(s.data(), s.size());
    }

    /** Append raw bytes with no length prefix (pre-framed payloads). */
    void writeBytesRaw(const void *data, std::size_t n) { writeRaw(data, n); }

    /** Serialize a vector given a per-element writer functor. */
    template <typename T, typename Fn>
    void
    writeVector(const std::vector<T> &items, Fn &&write_item)
    {
        writeU64(items.size());
        for (const auto &item : items) {
            write_item(*this, item);
        }
    }

    /**
     * Overwrite already-written bytes at @p at: size fields and
     * checksums known only once the bytes after them are written.
     */
    void patchU32(std::size_t at, u32 v) { patchRaw(at, &v, sizeof(v)); }
    void patchU64(std::size_t at, u64 v) { patchRaw(at, &v, sizeof(v)); }

    /** Pre-size the buffer for @p n total bytes. */
    void reserve(std::size_t n) { buf_.reserve(n); }

    const std::vector<u8> &bytes() const { return buf_; }
    std::vector<u8> takeBytes() { return std::move(buf_); }
    std::size_t size() const { return buf_.size(); }

  private:
    void
    patchRaw(std::size_t at, const void *data, std::size_t n)
    {
        MEDUSA_CHECK(at + n <= buf_.size(), "patch past the written bytes");
        std::memcpy(buf_.data() + at, data, n);
    }

    void
    writeRaw(const void *data, std::size_t n)
    {
        const u8 *p = static_cast<const u8 *>(data);
        buf_.insert(buf_.end(), p, p + n);
    }

    std::vector<u8> buf_;
};

/**
 * Reads values back in the order they were written, from bytes the
 * caller owns and keeps alive (no copy; many readers can decode
 * disjoint sections of one buffer). All read methods return errors
 * (never crash) on truncated input, so a corrupted artifact is reported
 * as a recoverable failure.
 */
class BinaryReader
{
  public:
    explicit BinaryReader(std::span<const u8> view) : buf_(view), pos_(0) {}

    StatusOr<u8>
    readU8()
    {
        u8 v{};
        MEDUSA_RETURN_IF_ERROR(readRaw(&v, sizeof(v)));
        return v;
    }

    StatusOr<u32>
    readU32()
    {
        u32 v{};
        MEDUSA_RETURN_IF_ERROR(readRaw(&v, sizeof(v)));
        return v;
    }

    StatusOr<u64>
    readU64()
    {
        u64 v{};
        MEDUSA_RETURN_IF_ERROR(readRaw(&v, sizeof(v)));
        return v;
    }

    StatusOr<std::string>
    readString()
    {
        MEDUSA_ASSIGN_OR_RETURN(u64 n, readU64());
        if (n > remaining()) {
            return truncated("string");
        }
        std::string s(reinterpret_cast<const char *>(buf_.data() + pos_), n);
        pos_ += n;
        return s;
    }

    /**
     * Deserialize a vector given a per-element reader functor. Every
     * element encodes to at least @p min_item_bytes, so a count the
     * remaining bytes cannot hold is a corrupted stream; refusing it
     * bounds the reserve below by sizeof(T) / min_item_bytes times the
     * data.
     */
    template <typename T, typename Fn>
    StatusOr<std::vector<T>>
    readVector(std::size_t min_item_bytes, Fn &&read_item)
    {
        MEDUSA_ASSIGN_OR_RETURN(u64 n, readU64());
        if (n > remaining() / min_item_bytes) {
            return internalError("serialized vector count exceeds data");
        }
        std::vector<T> out;
        out.reserve(static_cast<std::size_t>(n));
        for (u64 i = 0; i < n; ++i) {
            auto item = read_item(*this);
            if (!item.isOk()) {
                return item.status();
            }
            out.push_back(std::move(item).value());
        }
        return out;
    }

    /** Borrow @p n bytes at the cursor without copying. */
    StatusOr<std::span<const u8>>
    viewBytes(std::size_t n)
    {
        if (n > remaining()) {
            return internalError("serialized stream truncated");
        }
        std::span<const u8> out = buf_.subspan(pos_, n);
        pos_ += n;
        return out;
    }

    /** Advance the cursor past @p n bytes without reading them. */
    Status
    skipBytes(std::size_t n)
    {
        if (n > remaining()) {
            return internalError("serialized stream truncated");
        }
        pos_ += n;
        return Status::ok();
    }

    std::size_t remaining() const { return buf_.size() - pos_; }
    std::size_t position() const { return pos_; }
    bool atEnd() const { return pos_ == buf_.size(); }

  private:
    Status
    readRaw(void *out, std::size_t n)
    {
        if (n > remaining()) {
            return internalError("serialized stream truncated");
        }
        std::memcpy(out, buf_.data() + pos_, n);
        pos_ += n;
        return Status::ok();
    }

    Status
    truncated(const char *what)
    {
        return internalError(std::string("serialized stream truncated in ") +
                             what);
    }

    std::span<const u8> buf_;
    std::size_t pos_;
};

/** Write a whole byte buffer to a file, creating parent dirs if needed. */
Status writeFile(const std::string &path, const std::vector<u8> &bytes);

/** Read a whole file into a byte buffer. */
StatusOr<std::vector<u8>> readFile(const std::string &path);

} // namespace medusa

#endif // MEDUSA_COMMON_SERIALIZE_H

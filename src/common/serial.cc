#include "common/serial.h"

#include <array>
#include <cstdio>
#include <fstream>

#include "common/fault.h"

namespace sbrl {
namespace serial {

uint32_t Crc32(const char* data, size_t size) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ static_cast<unsigned char>(data[i])) & 0xFFu] ^
          (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void AppendString(std::string* out, const std::string& s) {
  AppendScalar<uint64_t>(out, s.size());
  out->append(s);
}

void AppendDoubleVector(std::string* out, const std::vector<double>& v) {
  AppendScalar<uint64_t>(out, v.size());
  out->append(reinterpret_cast<const char*>(v.data()),
              v.size() * sizeof(double));
}

bool ByteReader::ReadString(std::string* out) {
  uint64_t size = 0;
  if (!ReadScalar(&size) || size_ - pos_ < size) return false;
  out->assign(data_ + pos_, size);
  pos_ += size;
  return true;
}

bool ByteReader::ReadDoubleVector(std::vector<double>* out) {
  uint64_t size = 0;
  if (!ReadScalar(&size) || size > (1ull << 40) ||
      size_ - pos_ < size * sizeof(double)) {
    return false;
  }
  out->resize(size);
  std::memcpy(out->data(), data_ + pos_, size * sizeof(double));
  pos_ += size * sizeof(double);
  return true;
}

namespace {

constexpr size_t kMagicSize = 8;

void AppendSection(std::string* out, const Section& section) {
  AppendScalar<uint32_t>(out, section.tag);
  AppendScalar<uint64_t>(out, section.payload.size());
  out->append(section.payload);
  AppendScalar<uint32_t>(out,
                         Crc32(section.payload.data(), section.payload.size()));
}

}  // namespace

Status WriteSectionedFile(const FormatSpec& spec,
                          const std::vector<Section>& sections,
                          const std::string& path) {
  std::string encoded;
  encoded.append(spec.magic, kMagicSize);
  AppendScalar<uint32_t>(&encoded, spec.version);
  AppendScalar<uint32_t>(&encoded, static_cast<uint32_t>(sections.size()));
  for (const Section& section : sections) AppendSection(&encoded, section);

  if (FaultPoint(spec.write_fault)) {
    return Status::Internal(std::string("injected fault at ") +
                            spec.write_fault + ": " + path);
  }

  // Atomic commit: a crash between here and the rename leaves at most a
  // stale .tmp next to an intact previous file.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) {
      return Status::Internal("cannot open for writing: " + tmp);
    }
    out.write(encoded.data(), static_cast<std::streamsize>(encoded.size()));
    out.flush();
    if (!out.good()) {
      out.close();
      std::remove(tmp.c_str());
      return Status::Internal("write failed: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("rename failed: " + tmp + " -> " + path);
  }
  return Status::OK();
}

StatusOr<std::vector<Section>> ReadSectionedFile(const FormatSpec& spec,
                                                 const std::string& path) {
  const std::string what = spec.what;
  if (FaultPoint(spec.read_fault)) {
    return Status::Internal(std::string("injected fault at ") +
                            spec.read_fault + ": " + path);
  }
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::NotFound("cannot open: " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) {
    return Status::Internal("read failed: " + path);
  }

  if (bytes.size() < kMagicSize ||
      std::memcmp(bytes.data(), spec.magic, kMagicSize) != 0) {
    return Status::InvalidArgument("not a " + what + " (bad magic): " + path);
  }
  size_t pos = kMagicSize;
  auto read_u32 = [&](uint32_t* out) {
    if (bytes.size() - pos < sizeof(uint32_t)) return false;
    std::memcpy(out, bytes.data() + pos, sizeof(uint32_t));
    pos += sizeof(uint32_t);
    return true;
  };
  auto read_u64 = [&](uint64_t* out) {
    if (bytes.size() - pos < sizeof(uint64_t)) return false;
    std::memcpy(out, bytes.data() + pos, sizeof(uint64_t));
    pos += sizeof(uint64_t);
    return true;
  };

  uint32_t version = 0, section_count = 0;
  if (!read_u32(&version)) {
    return Status::Internal("truncated " + what + " header: " + path);
  }
  if (version != spec.version) {
    return Status::FailedPrecondition(
        what + " format version " + std::to_string(version) +
        " (this build reads " + std::to_string(spec.version) + "): " + path);
  }
  if (!read_u32(&section_count)) {
    return Status::Internal("truncated " + what + " header: " + path);
  }

  std::vector<Section> sections;
  sections.reserve(section_count);
  for (uint32_t s = 0; s < section_count; ++s) {
    Section section;
    uint32_t crc = 0;
    uint64_t payload_size = 0;
    if (!read_u32(&section.tag) || !read_u64(&payload_size) ||
        bytes.size() - pos < payload_size) {
      return Status::Internal("truncated " + what + " section: " + path);
    }
    const char* payload = bytes.data() + pos;
    pos += payload_size;
    if (!read_u32(&crc)) {
      return Status::Internal("truncated " + what + " section: " + path);
    }
    if (Crc32(payload, payload_size) != crc) {
      return Status::Internal(what + " CRC mismatch in section " +
                              std::to_string(section.tag) + ": " + path);
    }
    section.payload.assign(payload, payload_size);
    sections.push_back(std::move(section));
  }
  return sections;
}

}  // namespace serial
}  // namespace sbrl

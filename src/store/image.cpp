#include "store/image.hpp"

#include "store/codec.hpp"

namespace fa::store {

using fault::ErrCode;
using fault::Status;

namespace {

// The header/table/footer frame both container flavors share, after
// walk_frame() has checked it.
struct Frame {
  const unsigned char* base = nullptr;
  std::uint64_t section_count = 0;
  std::uint64_t table_end = 0;
  std::uint64_t data_end = 0;

  std::uint64_t entry_offset(std::uint64_t i) const {
    return kHeaderSize + i * kSectionEntrySize;
  }
  SectionInfo entry(std::uint64_t i) const {
    const unsigned char* e = base + entry_offset(i);
    SectionInfo info;
    info.kind = static_cast<SectionKind>(load_u32(e));
    info.owner = load_u32(e + 4);
    info.offset = load_u64(e + 8);
    info.length = load_u64(e + 16);
    info.crc = load_u32(e + 24);
    return info;
  }
  bool in_bounds(const SectionInfo& s) const {
    return s.offset >= table_end && s.offset <= data_end &&
           s.length <= data_end - s.offset;
  }
};

Status out_of_bounds(std::uint64_t entry_off, const SectionInfo& s,
                     const std::string& source) {
  return fail(ErrCode::kOutOfRange, entry_off, source,
              std::string("section ") + std::string(section_kind_name(s.kind)) +
                  " payload out of bounds");
}

Status out_of_order(const SectionInfo& s, const std::string& source) {
  return fail(ErrCode::kSchema, s.offset, source,
              "section payloads overlap or are out of order");
}

// Checks the frame: header (magic, version, endianness, header CRC),
// the section table's bounds, and the footer (magic, CRC, file size,
// data_end). A FASNAP01 frame must also carry zero footer padding.
Status walk_frame(const unsigned char* base, std::size_t size,
                  const char* magic, const std::string& source, Frame& out,
                  FileReport* report) {
  const bool snapshot = std::memcmp(magic, kMagic, 8) == 0;
  if (size < kHeaderSize + kFooterSize) {
    return fail(ErrCode::kTruncated, size, source,
                "file shorter than header + footer");
  }
  if (std::memcmp(base, magic, 8) != 0) {
    return fail(ErrCode::kBadMagic, 0, source,
                snapshot ? "bad snapshot magic"
                         : "bad sharded container magic");
  }
  const std::uint32_t version = load_u32(base + 8);
  if (report) report->version = version;
  if (version != kFormatVersion) {
    return fail(ErrCode::kSchema, 8, source,
                "unsupported format version " + std::to_string(version));
  }
  if (load_u32(base + 12) != kEndianTag) {
    return fail(ErrCode::kSchema, 12, source,
                "endianness mismatch (file written on foreign-endian host)");
  }
  if (load_u32(base + 60) != crc32(base, 60)) {
    return fail(ErrCode::kParse, 60, source, "header checksum mismatch");
  }
  if (report) report->header_ok = true;

  const std::uint64_t section_count = load_u64(base + 16);
  const std::uint64_t table_offset = load_u64(base + 24);
  const std::uint64_t data_end = load_u64(base + 32);
  if (table_offset != kHeaderSize) {
    return fail(ErrCode::kSchema, 24, source, "unexpected table offset");
  }
  if (section_count > (size / kSectionEntrySize) + 1) {
    return fail(ErrCode::kSchema, 16, source, "implausible section count");
  }
  const std::uint64_t table_end =
      table_offset + section_count * kSectionEntrySize;
  if (table_end > size || data_end > size || table_end > data_end) {
    return fail(ErrCode::kTruncated, 32, source,
                "section table or data extends past end of file");
  }

  // Footer before any section walk: it pins file_size, so torn tails
  // are caught first.
  const unsigned char* footer = base + size - kFooterSize;
  if (std::memcmp(footer + 16, kFooterMagic, 8) != 0) {
    return fail(ErrCode::kTruncated, size - kFooterSize + 16, source,
                "footer magic missing (torn write?)");
  }
  if (load_u32(footer + 24) != crc32(footer, 24)) {
    return fail(ErrCode::kParse, size - kFooterSize + 24, source,
                "footer checksum mismatch");
  }
  // The 4 pad bytes after footer_crc are the only ones no CRC covers;
  // requiring them zero keeps FASNAP01's "every byte is validated"
  // literally true.
  if (snapshot && load_u32(footer + 28) != 0) {
    return fail(ErrCode::kParse, size - kFooterSize + 28, source,
                "footer padding is not zero");
  }
  if (load_u64(footer) != size) {
    return fail(ErrCode::kTruncated, size - kFooterSize, source,
                "footer file size disagrees with actual size");
  }
  if (data_end != size - kFooterSize) {
    return fail(ErrCode::kSchema, 32, source,
                "header data_end disagrees with footer position");
  }
  if (report) report->footer_ok = true;
  out = Frame{base, section_count, table_end, data_end};
  return Status{};
}

}  // namespace

// ---------------------------------------------------------------------
// Image
// ---------------------------------------------------------------------

namespace {

class StringSink final : public ByteSink {
 public:
  explicit StringSink(std::string& out) : out_(out) {}
  void write(const void* p, std::size_t n) override {
    out_.append(static_cast<const char*>(p), n);
  }

 private:
  std::string& out_;
};

}  // namespace

Image::Plan Image::plan() const {
  // Sections are placed relative to the first one's 64-byte boundary
  // (the table's size is known only once they are counted); alignment
  // from an aligned base is the same either way.
  ImageBuilder b(0, default_owner_, nullptr);
  encode_(b);
  std::vector<SectionInfo>& sections = b.sections_;
  const std::uint64_t table_end =
      kHeaderSize + sections.size() * kSectionEntrySize;
  const std::uint64_t base = align_up(table_end);
  for (SectionInfo& s : sections) s.offset += base;
  const std::uint64_t data_end = sections.empty() ? table_end : base + b.pos_;
  Plan plan;
  plan.size = data_end + kFooterSize;

  plan.head.assign(table_end, '\0');
  char* h = plan.head.data();
  const auto put32 = [](char* at, std::uint32_t v) { std::memcpy(at, &v, 4); };
  const auto put64 = [](char* at, std::uint64_t v) { std::memcpy(at, &v, 8); };
  std::memcpy(h, magic_, 8);
  put32(h + 8, kFormatVersion);
  put32(h + 12, kEndianTag);
  put64(h + 16, sections.size());
  put64(h + 24, kHeaderSize);
  put64(h + 32, data_end);
  // [40, 60) stays zero (reserved).
  std::uint32_t crc = crc32(h, 60);
  put32(h + 60, crc);
  for (std::size_t i = 0; i < sections.size(); ++i) {
    const SectionInfo& s = sections[i];
    char* e = h + kHeaderSize + i * kSectionEntrySize;
    put32(e, static_cast<std::uint32_t>(s.kind));
    put32(e + 4, s.owner);
    put64(e + 8, s.offset);
    put64(e + 16, s.length);
    put32(e + 24, s.crc);
    // [28, 32) stays zero (reserved).
  }

  // The body CRC, chained from the header CRC over the table, each
  // padding run and each section's CRC — no payload byte is read again.
  crc = crc32(h + 60, table_end - 60, crc);
  std::uint64_t at = table_end;
  for (const SectionInfo& s : sections) {
    crc = crc32(kZeroPad, s.offset - at, crc);
    crc = crc32_combine(crc, s.crc, s.length);
    at = s.offset + s.length;
  }
  char* f = plan.footer.data();
  put64(f, plan.size);
  put32(f + 8, crc);
  std::memcpy(f + 16, kFooterMagic, 8);
  const std::uint32_t footer_crc = crc32(f, 24);
  put32(f + 24, footer_crc);
  // [28, 32) stays zero (reserved). The whole-file CRC chains the footer
  // onto the body CRC.
  plan.crc = crc32(f + 24, 8, crc32_combine(crc, footer_crc, 24));
  return plan;
}

void Image::emit(const Plan& plan, ByteSink& sink) const {
  sink.write(plan.head.data(), plan.head.size());
  ImageBuilder b(plan.head.size(), default_owner_, &sink);
  encode_(b);
  sink.write(plan.footer.data(), plan.footer.size());
}

std::string Image::bytes() const {
  const Plan p = plan();
  std::string out;
  out.reserve(p.size);
  StringSink sink(out);
  emit(p, sink);
  return out;
}

// The frame walk plus the full CRC ladder. On success `out` holds every
// section with in-bounds, CRC-clean payloads.
Status validate_image(const void* data, std::size_t size,
                      const std::string& source, SectionLookup& out,
                      FileReport* report) {
  const auto* base = static_cast<const unsigned char*>(data);
  Frame frame;
  if (Status s = walk_frame(base, size, kMagic, source, frame, report);
      !s.ok()) {
    return s;
  }
  // The whole-body CRC duplicates the per-section CRCs over the
  // payloads; a second full pass would double cold-start checksum time.
  // The strict decode path instead proves the same total coverage in
  // one pass: per-section CRCs for payloads (below) plus explicit
  // zero checks for every byte they skip (reserved entry fields,
  // alignment padding, table slack). The inspector still verifies the
  // redundant whole-body CRC — it is the cross-check on the ladder
  // itself.
  const bool body_ok =
      report ? load_u32(base + frame.data_end + 8) ==
                   crc32(base, frame.data_end)
             : true;
  if (report) report->body_crc_ok = body_ok;

  out.base = base;
  out.source = source;
  out.sections.reserve(frame.section_count);
  Status first_bad;  // inspect mode records all, returns first failure
  for (std::uint64_t i = 0; i < frame.section_count; ++i) {
    const SectionInfo info = frame.entry(i);
    const std::uint64_t entry_off = frame.entry_offset(i);
    bool crc_ok = false;
    if (info.owner != 0 || load_u32(base + entry_off + 28) != 0) {
      if (first_bad.ok()) {
        first_bad = fail(ErrCode::kParse, entry_off, source,
                         "section entry reserved bytes are not zero");
      }
    }
    if (!frame.in_bounds(info)) {
      if (first_bad.ok()) first_bad = out_of_bounds(entry_off, info, source);
    } else {
      crc_ok = crc32(base + info.offset, info.length) == info.crc;
      if (!crc_ok && first_bad.ok()) {
        first_bad = fail(ErrCode::kParse, info.offset, source,
                         std::string("section ") +
                             std::string(section_kind_name(info.kind)) +
                             " checksum mismatch");
      }
    }
    out.sections.push_back(info);
    if (report) report->sections.push_back(SectionReport{info, crc_ok});
  }
  if (!first_bad.ok()) return first_bad;
  if (!body_ok) {
    // Every section passed but a covered byte (padding, table slack)
    // flipped — still a corrupt file.
    return fail(ErrCode::kParse, size - kFooterSize + 8, source,
                "body checksum mismatch");
  }

  // Sections must tile [table_end, data_end) in ascending order with
  // zero-filled gaps: together with the per-section CRCs this covers
  // every body byte without the redundant second CRC pass.
  std::uint64_t cursor = frame.table_end;
  for (const SectionInfo& s : out.sections) {
    if (s.offset < cursor) return out_of_order(s, source);
    for (std::uint64_t b = cursor; b < s.offset; ++b) {
      if (base[b] != 0) {
        return fail(ErrCode::kParse, b, source, "padding byte is not zero");
      }
    }
    cursor = s.offset + s.length;
  }
  for (std::uint64_t b = cursor; b < frame.data_end; ++b) {
    if (base[b] != 0) {
      return fail(ErrCode::kParse, b, source, "padding byte is not zero");
    }
  }
  return Status{};
}

// The frame walk plus the structural floor: in-bounds, ascending,
// non-overlapping payloads. This is the memory-safety floor for spans
// served off the mmap; payload CRCs are a caller policy (deep verify /
// quarantine), not an open cost.
Status validate_container(const void* data, std::size_t size,
                          const std::string& source, SectionLookup& out) {
  const auto* base = static_cast<const unsigned char*>(data);
  Frame frame;
  if (Status s = walk_frame(base, size, kShardMagic, source, frame, nullptr);
      !s.ok()) {
    return s;
  }
  out.base = base;
  out.source = source;
  out.sections.reserve(frame.section_count);
  std::uint64_t cursor = frame.table_end;
  for (std::uint64_t i = 0; i < frame.section_count; ++i) {
    const SectionInfo info = frame.entry(i);
    if (!frame.in_bounds(info)) {
      return out_of_bounds(frame.entry_offset(i), info, source);
    }
    if (info.offset < cursor) return out_of_order(info, source);
    cursor = info.offset + info.length;
    out.sections.push_back(info);
  }
  return Status{};
}

const SectionInfo* need(const SectionLookup& img, SectionKind kind,
                        Status& status) {
  const SectionInfo* s = img.find(kind);
  if (!s) {
    status = fail(ErrCode::kSchema, 0, img.source,
                  std::string("missing section ") +
                      std::string(section_kind_name(kind)));
  }
  return s;
}

bool check_len(const SectionLookup& img, const SectionInfo& s,
               std::uint64_t want, Status& status) {
  if (s.length == want) return true;
  status = fail(ErrCode::kSchema, s.offset, img.source,
                std::string("section ") +
                    std::string(section_kind_name(s.kind)) + " has length " +
                    std::to_string(s.length) + ", expected " +
                    std::to_string(want));
  return false;
}

}  // namespace fa::store

#include "protect/hardware_protection.h"

#include "storage/arena.h"

namespace cwdb {

Result<std::unique_ptr<ProtectionManager>> HardwareProtection::Create(
    const ProtectionOptions& options, DbImage* image,
    MetricsRegistry* metrics) {
  std::unique_ptr<HardwareProtection> p(
      new HardwareProtection(options, image, metrics));
  // The image starts writable (formatting/recovery); the database arms the
  // scheme with ReprotectAll once it is open for business.
  return std::unique_ptr<ProtectionManager>(std::move(p));
}

Status HardwareProtection::BeginUpdate(DbPtr off, uint32_t len,
                                       UpdateHandle* h) {
  h->off = off;
  h->len = len;
  ins_.updates->Add();
  if (!armed_) return Status::OK();
  const uint64_t page_bytes = Arena::OsPageSize();
  uint64_t first = off / page_bytes;
  uint64_t last = (off + (len == 0 ? 0 : len - 1)) / page_bytes;
  std::lock_guard<std::mutex> guard(mu_);
  h->pages.clear();
  for (uint64_t p = first; p <= last; ++p) {
    h->pages.push_back(p);
    int& pins = exposed_[p];
    if (pins++ == 0) {
      CWDB_RETURN_IF_ERROR(
          image_->arena()->Protect(p * page_bytes, page_bytes, true));
      ins_.mprotect_calls->Add();
      ins_.pages_unprotected->Add();
    }
  }
  return Status::OK();
}

Status HardwareProtection::ReleasePages(const UpdateHandle& h) {
  if (!armed_) return Status::OK();
  const uint64_t page_bytes = Arena::OsPageSize();
  std::lock_guard<std::mutex> guard(mu_);
  for (uint64_t p : h.pages) {
    auto it = exposed_.find(p);
    CWDB_CHECK(it != exposed_.end()) << "unbalanced page exposure";
    if (--it->second == 0) {
      exposed_.erase(it);
      CWDB_RETURN_IF_ERROR(
          image_->arena()->Protect(p * page_bytes, page_bytes, false));
      ins_.mprotect_calls->Add();
    }
  }
  return Status::OK();
}

void HardwareProtection::EndUpdate(const UpdateHandle& h, const uint8_t*) {
  Status s = ReleasePages(h);
  CWDB_CHECK(s.ok()) << "reprotect failed: " << s.ToString();
}

void HardwareProtection::AbortUpdate(const UpdateHandle& h) {
  Status s = ReleasePages(h);
  CWDB_CHECK(s.ok()) << "reprotect failed: " << s.ToString();
}

Status HardwareProtection::ExposeAll() {
  std::lock_guard<std::mutex> guard(mu_);
  CWDB_RETURN_IF_ERROR(image_->arena()->Protect(0, image_->size(), true));
  ins_.mprotect_calls->Add();
  exposed_.clear();
  armed_ = false;
  return Status::OK();
}

Status HardwareProtection::ReprotectAll() {
  std::lock_guard<std::mutex> guard(mu_);
  CWDB_RETURN_IF_ERROR(image_->arena()->Protect(0, image_->size(), false));
  ins_.mprotect_calls->Add();
  exposed_.clear();
  armed_ = true;
  return Status::OK();
}

}  // namespace cwdb

//! No-op `Serialize`/`Deserialize` derives. The workspace only annotates
//! types with these derives — no code path actually serializes through
//! serde (persistence is hand-rolled binary record files, see
//! `baclassifier::durable`) — so emitting no impls is sufficient and keeps
//! the build offline-capable.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(_item: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(_item: TokenStream) -> TokenStream {
    TokenStream::new()
}

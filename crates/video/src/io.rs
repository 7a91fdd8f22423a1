//! Image output for the paper's visualization figures (Figs 6, 9, 11).
//!
//! Binary PGM (grayscale) is enough to inspect recovery/SR results with
//! any image viewer, with a montage helper to place frames side by side
//! the way the paper's figures do.

use crate::frame::Frame;
use std::io::{self, Write};
use std::path::Path;

/// Write a frame as a binary PGM (P5) file.
pub fn write_pgm(frame: &Frame, path: impl AsRef<Path>) -> io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    write_pgm_to(frame, &mut file)
}

/// Write a frame as binary PGM to any writer.
pub fn write_pgm_to(frame: &Frame, out: &mut impl Write) -> io::Result<()> {
    writeln!(out, "P5")?;
    writeln!(out, "{} {}", frame.width(), frame.height())?;
    writeln!(out, "255")?;
    out.write_all(&frame.to_u8())?;
    Ok(())
}

/// Horizontally concatenate frames (all must share a height) with a thin
/// separator column, mirroring the paper's side-by-side figures.
pub fn montage(frames: &[&Frame], separator: usize) -> Frame {
    assert!(!frames.is_empty());
    let height = frames[0].height();
    for f in frames {
        assert_eq!(f.height(), height, "montage frames must share height");
    }
    let total_w: usize =
        frames.iter().map(|f| f.width()).sum::<usize>() + separator * (frames.len() - 1);
    let mut out = Frame::filled(total_w, height, 1.0);
    let mut x0 = 0;
    for f in frames {
        for y in 0..height {
            for x in 0..f.width() {
                out.set(x0 + x, y, f.get(x, y));
            }
        }
        x0 += f.width() + separator;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Read back the binary PGM (P5) subset [`write_pgm_to`] writes
    /// (single whitespace-separated header, maxval 255).
    fn parse_pgm(bytes: &[u8]) -> io::Result<Frame> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        let mut pos = 0usize;
        let mut fields: Vec<String> = Vec::new();
        // Parse 4 header fields (magic, width, height, maxval), skipping
        // whitespace and `#` comments.
        while fields.len() < 4 {
            while pos < bytes.len() && (bytes[pos] as char).is_whitespace() {
                pos += 1;
            }
            if pos < bytes.len() && bytes[pos] == b'#' {
                while pos < bytes.len() && bytes[pos] != b'\n' {
                    pos += 1;
                }
                continue;
            }
            let start = pos;
            while pos < bytes.len() && !(bytes[pos] as char).is_whitespace() {
                pos += 1;
            }
            if start == pos {
                return Err(bad("truncated PGM header"));
            }
            fields.push(String::from_utf8_lossy(&bytes[start..pos]).into_owned());
        }
        pos += 1; // single whitespace after maxval
        if fields[0] != "P5" {
            return Err(bad("not a binary PGM (P5) file"));
        }
        let width: usize = fields[1].parse().map_err(|_| bad("bad width"))?;
        let height: usize = fields[2].parse().map_err(|_| bad("bad height"))?;
        if fields[3] != "255" {
            return Err(bad("only maxval 255 supported"));
        }
        let need = width * height;
        if bytes.len() < pos + need {
            return Err(bad("truncated PGM pixel data"));
        }
        Ok(Frame::from_u8(width, height, &bytes[pos..pos + need]))
    }

    #[test]
    fn pgm_round_trip() {
        let f = Frame::from_fn(5, 3, |x, y| (x + y) as f32 / 8.0);
        let mut buf = Vec::new();
        write_pgm_to(&f, &mut buf).unwrap();
        let back = parse_pgm(&buf).unwrap();
        assert_eq!((back.width(), back.height()), (5, 3));
        for (a, b) in f.data().iter().zip(back.data().iter()) {
            assert!((a - b).abs() <= 0.5 / 255.0 + 1e-6);
        }
    }

    #[test]
    fn pgm_header_is_well_formed() {
        let f = Frame::new(2, 2);
        let mut buf = Vec::new();
        write_pgm_to(&f, &mut buf).unwrap();
        assert!(buf.starts_with(b"P5\n2 2\n255\n"));
        assert_eq!(buf.len(), b"P5\n2 2\n255\n".len() + 4);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_pgm(b"P6\n2 2\n255\nxxxx").is_err());
        assert!(parse_pgm(b"P5\n2 2\n255\nx").is_err()); // truncated
    }

    #[test]
    fn montage_concatenates_widths() {
        let a = Frame::filled(3, 2, 0.0);
        let b = Frame::filled(4, 2, 0.5);
        let m = montage(&[&a, &b], 2);
        assert_eq!((m.width(), m.height()), (3 + 2 + 4, 2));
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(3, 0), 1.0); // separator
        assert_eq!(m.get(5, 0), 0.5);
    }

    #[test]
    #[should_panic(expected = "share height")]
    fn montage_rejects_mixed_heights() {
        let a = Frame::new(2, 2);
        let b = Frame::new(2, 3);
        let _ = montage(&[&a, &b], 1);
    }
}

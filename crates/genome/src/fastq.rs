//! FASTA and FASTQ I/O.
//!
//! The paper's datasets arrive as Illumina FASTQ; contigs leave as FASTA.
//! Parsing is buffered and line-oriented; records with ambiguous bases (`N`)
//! are rejected rather than silently mangled — synthetic inputs never
//! contain them and real pipelines filter them in preprocessing.

use crate::seq::PackedSeq;
use crate::{GenomeError, Result};
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Parse a FASTA file into `(header, sequence)` records. Multi-line
/// sequences are concatenated.
pub fn read_fasta(path: &Path) -> Result<Vec<(String, PackedSeq)>> {
    let reader = BufReader::new(File::open(path)?);
    let mut out: Vec<(String, PackedSeq)> = Vec::new();
    let mut current: Option<(String, String)> = None;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix('>') {
            if let Some((h, s)) = current.take() {
                out.push((h, parse_seq(&s, lineno)?));
            }
            current = Some((header.to_string(), String::new()));
        } else {
            match current.as_mut() {
                Some((_, s)) => s.push_str(line),
                None => {
                    return Err(GenomeError::Parse(format!(
                        "line {}: sequence data before any FASTA header",
                        lineno + 1
                    )))
                }
            }
        }
    }
    if let Some((h, s)) = current {
        out.push((h, parse_seq(&s, 0)?));
    }
    Ok(out)
}

/// Write `(header, sequence)` records as FASTA, wrapping at 70 columns.
pub fn write_fasta<'a, I>(path: &Path, records: I) -> Result<()>
where
    I: IntoIterator<Item = (&'a str, &'a PackedSeq)>,
{
    let mut w = BufWriter::new(File::create(path)?);
    for (header, seq) in records {
        writeln!(w, ">{header}")?;
        let s = seq.to_string();
        for chunk in s.as_bytes().chunks(70) {
            w.write_all(chunk)?;
            w.write_all(b"\n")?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Parse a FASTQ file into `(name, sequence)` records; quality strings are
/// validated for length and discarded.
pub fn read_fastq(path: &Path) -> Result<Vec<(String, PackedSeq)>> {
    let mut reader = BufReader::new(File::open(path)?);
    let mut out = Vec::new();
    let mut line = String::new();
    let mut lineno = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(out);
        }
        lineno += 1;
        let name_line = line.trim_end().to_string();
        let name = name_line.strip_prefix('@').ok_or_else(|| {
            GenomeError::Parse(format!(
                "line {lineno}: expected '@name', got {name_line:?}"
            ))
        })?;
        let name = name.to_string();

        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(GenomeError::Parse(format!(
                "line {lineno}: record {name:?} truncated before sequence"
            )));
        }
        lineno += 1;
        let seq = parse_seq(line.trim_end(), lineno)?;

        line.clear();
        if reader.read_line(&mut line)? == 0 || !line.starts_with('+') {
            return Err(GenomeError::Parse(format!(
                "line {}: expected '+' separator in record {name:?}",
                lineno + 1
            )));
        }
        lineno += 1;

        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(GenomeError::Parse(format!(
                "line {lineno}: record {name:?} truncated before quality"
            )));
        }
        lineno += 1;
        let qual_len = line.trim_end().len();
        if qual_len != seq.len() {
            return Err(GenomeError::Parse(format!(
                "line {lineno}: quality length {qual_len} differs from sequence length {}",
                seq.len()
            )));
        }
        out.push((name, seq));
    }
}

/// Write reads as FASTQ with a constant placeholder quality.
pub fn write_fastq<'a, I>(path: &Path, records: I) -> Result<()>
where
    I: IntoIterator<Item = (&'a str, &'a PackedSeq)>,
{
    let mut w = BufWriter::new(File::create(path)?);
    for (name, seq) in records {
        writeln!(w, "@{name}")?;
        writeln!(w, "{seq}")?;
        writeln!(w, "+")?;
        for _ in 0..seq.len() {
            w.write_all(b"I")?;
        }
        w.write_all(b"\n")?;
    }
    w.flush()?;
    Ok(())
}

fn parse_seq(s: &str, lineno: usize) -> Result<PackedSeq> {
    s.parse().map_err(|e| match e {
        GenomeError::Parse(m) => GenomeError::Parse(format!("near line {lineno}: {m}")),
        other => other,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    fn tmp(content: &str) -> (stdx::TempDir, std::path::PathBuf) {
        let dir = stdx::tempdir().unwrap();
        let path = dir.path().join("f.txt");
        std::fs::File::create(&path)
            .unwrap()
            .write_all(content.as_bytes())
            .unwrap();
        (dir, path)
    }

    #[test]
    fn fasta_roundtrip_with_wrapping() {
        let dir = stdx::tempdir().unwrap();
        let path = dir.path().join("contigs.fa");
        let long: PackedSeq = "ACGT".repeat(50).parse().unwrap();
        let short: PackedSeq = "TTAA".parse().unwrap();
        write_fasta(&path, [("contig_0", &long), ("contig_1", &short)]).unwrap();
        let got = read_fasta(&path).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, "contig_0");
        assert_eq!(got[0].1, long);
        assert_eq!(got[1].1, short);
    }

    #[test]
    fn fasta_multiline_records_are_concatenated() {
        let (_g, path) = tmp(">r1\nACGT\nACGT\n>r2\nTT\n");
        let got = read_fasta(&path).unwrap();
        assert_eq!(got[0].1.to_string(), "ACGTACGT");
        assert_eq!(got[1].1.to_string(), "TT");
    }

    #[test]
    fn fasta_rejects_headerless_data() {
        let (_g, path) = tmp("ACGT\n");
        assert!(matches!(read_fasta(&path), Err(GenomeError::Parse(_))));
    }

    #[test]
    fn fastq_roundtrip() {
        let dir = stdx::tempdir().unwrap();
        let path = dir.path().join("reads.fq");
        let r1: PackedSeq = "GATTACA".parse().unwrap();
        let r2: PackedSeq = "CCCGGG".parse().unwrap();
        write_fastq(&path, [("read/1", &r1), ("read/2", &r2)]).unwrap();
        let got = read_fastq(&path).unwrap();
        assert_eq!(
            got,
            vec![("read/1".to_string(), r1), ("read/2".to_string(), r2)]
        );
    }

    #[test]
    fn fastq_detects_truncation_and_bad_separator() {
        let (_g1, p1) = tmp("@r\nACGT\n");
        assert!(matches!(read_fastq(&p1), Err(GenomeError::Parse(_))));
        let (_g2, p2) = tmp("@r\nACGT\nXIII\nIIII\n");
        assert!(matches!(read_fastq(&p2), Err(GenomeError::Parse(_))));
        let (_g3, p3) = tmp("@r\nACGT\n+\nII\n");
        assert!(matches!(read_fastq(&p3), Err(GenomeError::Parse(_))));
    }

    #[test]
    fn fastq_rejects_ambiguous_bases() {
        let (_g, path) = tmp("@r\nACNT\n+\nIIII\n");
        assert!(matches!(read_fastq(&path), Err(GenomeError::Parse(_))));
    }

    #[test]
    fn empty_files_parse_to_no_records() {
        let (_g1, p1) = tmp("");
        assert!(read_fasta(&p1).unwrap().is_empty());
        let (_g2, p2) = tmp("");
        assert!(read_fastq(&p2).unwrap().is_empty());
    }
}
